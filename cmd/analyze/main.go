// Command analyze regenerates the paper's tables and figures from a
// synthetic lab (or from previously collected snapshot files).
//
// Usage:
//
//	analyze [-exp all|table1|fig1|...|sanitation] [-scale 0.05] [-seed 42]
//	        [-ixps IX.br-SP,DE-CIX,LINX,AMS-IX | all] [-snapshots dir]
//	        [-parallel N] [-trace file]
//
// Without -snapshots it generates the calibrated synthetic workload;
// with -snapshots it loads stored snapshot files instead, and
// generates nothing. The directory must hold a snapshot for every
// -ixps profile; select the IXPs it holds with -ixps. The files pick
// the load path: columnar binary snapshot files are indexed straight
// off their columns (no []bgp.Route is ever materialized), delta
// chains (a day-0 .bin plus daily .delta files, as written by `ixpgen
// -codec delta` or `collect -codec delta`) advance each day's index
// from the previous day's, and other codecs and MRT dumps materialize
// their routes. Every path produces byte-identical experiment output.
//
// -parallel bounds the lab's worker pools: generation, file decode and
// the experiment fan-out, each experiment writing to an ordered
// buffer, so the output is byte-identical to a sequential run. Index
// builds size their own fan-out by GOMAXPROCS; for a fully
// single-threaded run use GOMAXPROCS=1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, "+strings.Join(report.ExperimentNames, ", ")+")")
	scale := flag.Float64("scale", 0.05, "workload scale relative to the paper's magnitudes")
	seed := flag.Int64("seed", 42, "generation seed")
	ixps := flag.String("ixps", "big4", "comma-separated IXP names, 'big4' or 'all'")
	snapshotDir := flag.String("snapshots", "", "load snapshots from this directory instead of generating")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker budget for generation, snapshot decode and the experiment fan-out")
	tracePath := flag.String("trace", "", "write a trace ledger for the run to this file (inspect with tracecat)")
	flag.Parse()

	profiles, err := selectProfiles(*ixps)
	if err != nil {
		fatal(err)
	}
	// With -snapshots the lab is a shell the load fills; generating the
	// synthetic snapshots first would only let them stand in for IXPs
	// the directory lacks.
	var lab *report.Lab
	if *snapshotDir != "" {
		lab = report.NewLabShell(profiles, *seed, *scale, *parallel)
	} else if lab, err = report.NewLabParallel(profiles, *seed, *scale, *parallel); err != nil {
		fatal(err)
	}
	// With -trace, the whole run becomes one trace: an analyze.run root
	// span parents every report.experiment span (and, through
	// analysis.SetTelemetry, the index build/advance spans).
	var traceSink *telemetry.JSONLSink
	var rootSpan *telemetry.Span
	if *tracePath != "" {
		traceSink, err = telemetry.NewJSONLSink(*tracePath, 0)
		if err != nil {
			fatal(err)
		}
		reg := telemetry.New()
		reg.SetSpanSink(traceSink)
		analysis.SetTelemetry(reg)
		lab.Telemetry = reg
		lab.TraceCtx, rootSpan = telemetry.StartSpan(context.Background(), reg, "analyze.run")
		rootSpan.SetAttr("exp", *exp)
		rootSpan.SetAttrInt("parallel", int64(*parallel))
	}
	if *snapshotDir != "" {
		if err := lab.LoadSnapshotDir(*snapshotDir); err != nil {
			// Series is set once every file has loaded; failing after
			// that means the directory lacks some -ixps profiles.
			if lab.Series != nil {
				err = fmt.Errorf("%w; select the IXPs it holds with -ixps", err)
			}
			fatal(err)
		}
	}

	names := report.ExperimentNames
	if *exp != "all" {
		names = strings.Split(*exp, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	outs, runErr := lab.RunMany(names)
	if rootSpan != nil {
		if runErr != nil {
			rootSpan.SetAttr("error", runErr.Error())
		}
		rootSpan.End()
		if err := traceSink.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "analyze: trace ledger:", err)
		} else {
			fmt.Fprintln(os.Stderr, "analyze: trace ledger →", *tracePath)
		}
	}
	for i, out := range outs {
		os.Stdout.Write(out)
		if *outDir != "" {
			path := filepath.Join(*outDir, names[i]+".txt")
			if err := os.WriteFile(path, out, 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func selectProfiles(spec string) ([]ixpgen.Profile, error) {
	switch spec {
	case "big4":
		return ixpgen.BigFour(), nil
	case "all":
		return ixpgen.Profiles(), nil
	}
	var out []ixpgen.Profile
	for _, name := range strings.Split(spec, ",") {
		p := ixpgen.ProfileByName(strings.TrimSpace(name))
		if p == nil {
			return nil, fmt.Errorf("unknown IXP %q", name)
		}
		out = append(out, *p)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
