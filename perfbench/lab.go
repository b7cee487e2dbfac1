package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// labScale sizes lab-synthetic so that one pass takes about a second on
// two CPUs: enough passes fit in a run for a steady median, and the
// synthetic series still dominate the pass as they do at full scale.
const labScale = 0.002

// labSeries are the (days, valley days) series the lab's temporal
// experiments generate per IXP: table3, table4 and sanitation.
var labSeries = []struct {
	days    int
	valleys []int
}{{7, nil}, {84, nil}, {21, []int{5, 13}}}

// digestFile is the recorded sha256 of every lab-synthetic experiment
// output, per seed, at labScale. A later change must keep the outputs
// byte-identical, so these digests only change when the benchmark does.
type digestFile struct {
	Scale       float64             `json:"scale"`
	Experiments []string            `json:"experiments"`
	Digests     map[string][]string `json:"digests"`
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the recorded digests for seed, if any.
func recordedDigests(seed int64) ([]string, bool, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, false, fmt.Errorf("digests.json: %w", err)
	}
	if f.Scale != labScale || !slices.Equal(f.Experiments, report.ExperimentNames) {
		return nil, false, fmt.Errorf("digests.json was recorded for another scale or experiment list")
	}
	d, ok := f.Digests[strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// labRun generates the lab and runs every experiment: analyze -exp all
// without stored data. tel receives the lab's experiment histogram and,
// in a traced pass, its report.experiment spans; nil leaves the lab
// uninstrumented.
func labRun(ctx context.Context, reg, tel *telemetry.Registry, seed int64, workers int) ([][]byte, float64, error) {
	t0 := time.Now()
	_, sp := telemetry.StartSpan(ctx, reg, "report.NewLabParallel")
	lab, err := report.NewLabParallel(ixpgen.BigFour(), seed, labScale, workers)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	outs, err := runMany(ctx, reg, tel, lab)
	return outs, time.Since(t0).Seconds(), err
}

func runLab(b *bench) error {
	want, recorded, err := recordedDigests(b.seed)
	if err != nil {
		return err
	}
	if recorded {
		b.note("outputs checked against the digests recorded for seed %d", b.seed)
	} else {
		b.note("no digests recorded for seed %d: outputs checked against the first set-up run", b.seed)
	}
	// Set-up is a warm-up run of the headline configuration, checked
	// like every pass.
	if err := b.setup(func(i int) error {
		outs, _, err := labRun(context.Background(), nil, telemetry.New(), b.seed, b.nproc)
		if err != nil {
			return err
		}
		if !recorded && i == 0 {
			want = digestOutputs(outs)
		}
		b.checkN(len(want), mismatches(digestOutputs(outs), want), "lab-synthetic set-up outputs")
		return nil
	}); err != nil {
		return err
	}

	var layers layerSamples
	var kept [][]byte
	pass := func(ctx context.Context, reg *telemetry.Registry, workers int) (float64, error) {
		tel, recordLayers := b.instrument(reg, &layers)
		outs, wall, err := labRun(ctx, reg, tel, b.seed, workers)
		recordLayers()
		if err != nil {
			return 0, err
		}
		b.checkN(len(want), mismatches(digestOutputs(outs), want), "lab-synthetic outputs with %d workers", workers)
		kept = outs
		return wall, nil
	}

	if !b.traced {
		err := b.measureBatch(pass, b.seconds)
		runtime.KeepAlive(kept) // live_heap_mb counts the last outputs
		return err
	}
	if err := b.traceBatch(pass, b.seconds); err != nil {
		return err
	}
	b.setLayerSamples(&layers)
	genMS, snapMS, err := b.probeGenerate()
	if err != nil {
		return err
	}
	b.predictLayers([]string{"ixpgen", "report.temporal"}, []layer{
		{"ixpgen", genMS + snapMS},
		{"report.temporal", b.values["report.temporal_ms"]},
		{"report.point", b.values["report.point_ms"]},
		{"analysis.index", b.values["analysis.index_builds"] * b.values["analysis.index_build_ms"]},
	})
	return nil
}

// probeGenerate times, one call at a time, the GenerateDay and
// Workload.Snapshot calls a lab-synthetic pass makes, and returns their
// total ms per pass.
func (b *bench) probeGenerate() (genTotal, snapTotal float64, err error) {
	ctx, sp := telemetry.StartSpan(b.root, b.reg, "bench.ixpgen_probe")
	defer sp.End()
	var gen, snap []float64
	for _, p := range ixpgen.BigFour() {
		for _, s := range labSeries {
			opts := ixpgen.TemporalOptions{Seed: b.seed, Scale: labScale, Days: s.days, ValleyDays: s.valleys}
			for d := 0; d < s.days; d++ {
				_, gs := telemetry.StartSpan(ctx, b.reg, "ixpgen.GenerateDay")
				t0 := time.Now()
				wl, date, err := ixpgen.GenerateDay(p, opts, d)
				gen = append(gen, ms(time.Since(t0)))
				gs.End()
				if err != nil {
					return 0, 0, err
				}
				_, ss := telemetry.StartSpan(ctx, b.reg, "ixpgen.Workload.Snapshot")
				t0 = time.Now()
				wl.Snapshot(date)
				snap = append(snap, ms(time.Since(t0)))
				ss.End()
			}
		}
	}
	b.timing("generate_day", "ms", gen)
	b.timing("snapshot", "ms", snap)
	b.set("ixpgen.generate_day_ms", medianOf(gen))
	b.set("ixpgen.snapshot_ms", medianOf(snap))
	return sum(gen), sum(snap), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// recordDigests writes the digest file for seeds 0..n-1.
func recordDigests(n int, path string) error {
	f := digestFile{Scale: labScale, Experiments: report.ExperimentNames, Digests: map[string][]string{}}
	for seed := 0; seed < n; seed++ {
		outs, _, err := labRun(context.Background(), nil, telemetry.New(), int64(seed), 0)
		if err != nil {
			return err
		}
		f.Digests[strconv.Itoa(seed)] = digestOutputs(outs)
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
