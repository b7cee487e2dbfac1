package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// batchPass runs one pass with the given worker budget and returns its
// wall time in seconds, from input to complete result. ctx carries the
// pass's span and reg is non-nil only in traced passes.
type batchPass func(ctx context.Context, reg *telemetry.Registry, workers int) (float64, error)

// measureBatch alternates passes with nproc workers (the high load
// level, the headline configuration) and with one worker (the low one)
// until budget is spent, at least one pair. A pass is one operation:
// wall_s is the median high-level pass and the latency metrics are
// pass latencies at each level.
//
// After each one-worker pass it samples the live heap, with that
// pass's result still held by the workload, and live_heap_mb is the
// median sample: what the analysis package's global index cache holds
// at any moment depends on how the last parallel pass was scheduled,
// and single samples of the same code differed by 40%.
func (b *bench) measureBatch(pass batchPass, budget time.Duration) error {
	var lo, hi, heap []float64
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		w, err := pass(context.Background(), nil, b.nproc)
		if err != nil {
			return err
		}
		hi = append(hi, w*1000)
		if w, err = pass(context.Background(), nil, 1); err != nil {
			return err
		}
		lo = append(lo, w*1000)
		heap = append(heap, liveHeapMB())
	}
	b.set("wall_s", medianOf(hi)/1000)
	b.setLatencies(lo, hi)
	b.timing("live_heap_mb", "MB", heap)
	b.set("live_heap_mb", medianOf(heap))
	return nil
}

// liveHeapMB forces a collection and returns the heap still live.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// traceBatch alternates untraced and traced passes at the high load
// level until budget is spent, and reports the traced over the
// untraced median wall time as bench.trace_overhead. Traced passes run
// under a "bench.pass" span and record the runtime cost.
func (b *bench) traceBatch(pass batchPass, budget time.Duration) error {
	var plain, traced []float64
	var rt runtimeSamples
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		w, err := pass(context.Background(), nil, b.nproc)
		if err != nil {
			return err
		}
		plain = append(plain, w)

		ctx, sp := telemetry.StartSpan(b.root, b.reg, "bench.pass")
		mem := startMem()
		w, err = pass(ctx, b.reg, b.nproc)
		rt.add(mem)
		sp.End()
		if err != nil {
			return err
		}
		traced = append(traced, w)
	}
	b.timing("untraced_s", "s", plain)
	b.timing("traced_s", "s", traced)
	b.set("bench.trace_overhead", medianOf(traced)/medianOf(plain))
	b.setRuntime(&rt)
	return nil
}

// passRegistry returns a fresh registry for the program hooks of one
// traced pass, sharing the run's span sink, so the pass's counters
// start from zero and its spans join the ledger.
func (b *bench) passRegistry() *telemetry.Registry {
	r := telemetry.New()
	r.SetSpanSink(b.sink)
	return r
}

// traceAnalysis instruments the analysis package for one traced pass
// on a span-less registry (the package roots its own spans, which
// would break the ledger's single tree) and returns a function that
// turns the instrumentation off and reports index constructions and
// their total time.
func traceAnalysis() func() (builds, totalMS float64) {
	reg := telemetry.New()
	analysis.SetTelemetry(reg)
	return func() (float64, float64) {
		analysis.SetTelemetry(nil)
		var n int64
		for _, src := range []string{"routes", "columns", "delta"} {
			n += reg.CounterVec("ixplight_analysis_index_builds_total", "", "source").With(src).Value()
		}
		h := reg.Histogram("ixplight_analysis_index_build_seconds", "", nil)
		return float64(n), h.Sum() * 1000
	}
}

// instrument prepares a traced pass that runs experiments: it returns
// the registry for Lab.Telemetry and a function that records the
// pass's analysis and experiment figures. Untraced, both do nothing.
func (b *bench) instrument(reg *telemetry.Registry, layers *layerSamples) (*telemetry.Registry, func()) {
	if reg == nil {
		return nil, func() {}
	}
	tel, analysisDone := b.passRegistry(), traceAnalysis()
	return tel, func() {
		layers.addAnalysis(analysisDone())
		layers.addExperiments(tel)
	}
}

// runMany runs every experiment of lab under a report.Lab.RunMany span.
// tel, when set, instruments the lab and parents its report.experiment
// spans under that span.
func runMany(ctx context.Context, reg, tel *telemetry.Registry, lab *report.Lab) ([][]byte, error) {
	runCtx, sp := telemetry.StartSpan(ctx, reg, "report.Lab.RunMany")
	defer sp.End()
	lab.Telemetry, lab.TraceCtx = tel, runCtx
	return lab.RunMany(report.ExperimentNames)
}

// experimentMS reads each experiment's run time, in ms, from the
// report.Lab.Telemetry histogram of a registry used for one pass.
func experimentMS(reg *telemetry.Registry) []float64 {
	vec := reg.HistogramVec("ixplight_report_experiment_seconds", "", nil, "experiment")
	out := make([]float64, len(report.ExperimentNames))
	for i, name := range report.ExperimentNames {
		out[i] = vec.With(name).Sum() * 1000
	}
	return out
}

// temporalExperiments regenerate or walk a whole daily series; the
// rest are point-in-time analyses of the latest snapshot.
var temporalExperiments = map[string]bool{"table3": true, "table4": true, "sanitation": true}

// splitExperiments sums experiment times into temporal and point ms.
func splitExperiments(expMS []float64) (temporal, point float64) {
	for i, name := range report.ExperimentNames {
		if temporalExperiments[name] {
			temporal += expMS[i]
		} else {
			point += expMS[i]
		}
	}
	return temporal, point
}

// layerSamples collects the per-pass layer figures of traced batch
// passes that run experiments.
type layerSamples struct {
	temporal, point, builds, buildMS []float64
}

func (l *layerSamples) addExperiments(reg *telemetry.Registry) {
	t, p := splitExperiments(experimentMS(reg))
	l.temporal = append(l.temporal, t)
	l.point = append(l.point, p)
}

func (l *layerSamples) addAnalysis(builds, totalMS float64) {
	l.builds = append(l.builds, builds)
	if builds > 0 {
		l.buildMS = append(l.buildMS, totalMS/builds)
	}
}

func (b *bench) setLayerSamples(l *layerSamples) {
	b.set("report.temporal_ms", medianOf(l.temporal))
	b.set("report.point_ms", medianOf(l.point))
	b.set("analysis.index_builds", medianOf(l.builds))
	b.set("analysis.index_build_ms", medianOf(l.buildMS))
}

// digestOutputs returns the hex sha256 of each experiment output.
func digestOutputs(outs [][]byte) []string {
	d := make([]string, len(outs))
	for i, o := range outs {
		sum := sha256.Sum256(o)
		d[i] = hex.EncodeToString(sum[:])
	}
	return d
}

// mismatches counts the experiments whose digest differs from want;
// a missing output counts as a mismatch.
func mismatches(got, want []string) int {
	bad := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}
