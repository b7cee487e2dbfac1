// Command perfbench is ixplight's end-to-end benchmark. It drives one
// seeded workload through the public entry points of ixpgen, rs, lg,
// collector, analysis, report and ixpd, checks every output, and
// prints one JSON result as its last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics of untraced
// runs. With --trace 1 it holds the per-layer metrics of a separate
// traced run, whose span ledger is written under the work directory
// for cmd/tracecat. WORKLOADS.md explains each workload and metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ixplight/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"lo.p50_ms", "ms"},
	{"lo.p99_ms", "ms"},
	{"hi.p99_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"ixpgen.generate_day_ms", "ms"},
	{"ixpgen.snapshot_ms", "ms"},
	{"report.temporal_ms", "ms"},
	{"report.point_ms", "ms"},
	{"report.load_ms", "ms"},
	{"analysis.index_builds", "count"},
	{"analysis.index_build_ms", "ms"},
	{"analysis.advance_ms", "ms"},
	{"collector.decode_ms", "ms"},
	{"collector.encode_ms", "ms"},
	{"collector.bytes_per_route", "B/route"},
	{"collector.crawl_ms", "ms"},
	{"lg.requests", "count"},
	{"lg.retries", "count"},
	{"lg.server_busy_ms", "ms"},
	{"lg.roundtrip_ms", "ms"},
	{"ixpd.busy_ms", "ms"},
	{"ixpd.hit_ratio", "ratio"},
	{"ixpd.not_modified_share", "ratio"},
	{"ixpd.computes", "count"},
	{"ixpd.compute_ms", "ms"},
	{"ixpd.coalesced", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"lab-synthetic": runLab,
	"chain-replay":  runChainReplay,
	"crawl-chain":   runCrawl,
	"ixpd-serve":    runServe,
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

// bench is one benchmark run: its parameters, its tally of checked
// operations and the metrics it reports.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for this run, removed at exit
	nproc    int

	attempted, failed int
	values            map[string]float64
	lines             []string // human-readable summary, printed before the result

	// Traced runs only: reg carries the span sink, root is the one
	// root span every benchmark span descends from.
	reg    *telemetry.Registry
	sink   *telemetry.JSONLSink
	ledger string
	root   context.Context
}

func main() {
	workload := flag.String("workload", "", "workload to run: lab-synthetic, chain-replay, crawl-chain or ixpd-serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "how long the timed part runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and trace ledgers")
	record := flag.Int("record-digests", 0, "write digests.json for seeds 0..n-1 of lab-synthetic and exit")
	flag.Parse()

	if *record > 0 {
		if err := recordDigests(*record, filepath.Join("perfbench", "digests.json")); err != nil {
			fatal(err)
		}
		return
	}
	run := workloads[*workload]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: --workload {%s} --seed N --seconds S --trace 0|1", strings.Join(workloadNames(), ",")))
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.GOMAXPROCS(0),
		values:   map[string]float64{},
	}
	b.work = filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	err := b.execute(run, *workdir)
	os.RemoveAll(b.work)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", b.workload, err))
	}
	b.print()
}

// execute runs the workload, inside the ledger's root span when traced.
func (b *bench) execute(run func(*bench) error, workdir string) error {
	if !b.traced {
		return run(b)
	}
	dir := filepath.Join(workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.ledger = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	sink, err := telemetry.NewJSONLSink(b.ledger, 0)
	if err != nil {
		return err
	}
	b.sink = sink
	b.reg = telemetry.New()
	b.reg.SetSpanSink(sink)
	ctx, root := telemetry.StartSpan(context.Background(), b.reg, "bench."+b.workload)
	root.SetAttrInt("seed", b.seed)
	b.root = ctx
	runErr := run(b)
	root.End()
	if err := sink.Close(); err != nil {
		return fmt.Errorf("trace ledger: %w", err)
	}
	if runErr != nil {
		return runErr
	}
	return b.checkLedger()
}

// checkLedger verifies that the ledger reads back as one tree: exactly
// one root span and no span whose parent is missing.
func (b *bench) checkLedger() error {
	led, err := telemetry.ReadLedger(b.ledger)
	if err != nil {
		return err
	}
	roots, orphans := ledgerShape(led.Spans)
	b.check(roots == 1 && orphans == 0 && b.sink.Dropped() == 0,
		"trace ledger %s: %d spans, %d roots, %d orphans, %d dropped",
		b.ledger, len(led.Spans), roots, orphans, b.sink.Dropped())
	b.note("trace ledger %s: %d spans, %d root, %d orphans", b.ledger, len(led.Spans), roots, orphans)
	return nil
}

// ledgerShape counts the root spans of a ledger and the spans whose
// parent is not in it.
func ledgerShape(spans []telemetry.SpanRecord) (roots, orphans int) {
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		switch {
		case s.Root():
			roots++
		case !ids[s.Parent]:
			orphans++
		}
	}
	return roots, orphans
}

// check records one checked operation; a false ok counts as failed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// checkN records n checked operations of which bad failed.
func (b *bench) checkN(n, bad int, format string, args ...any) {
	b.attempted += n
	if bad > 0 {
		b.failed += bad
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed: "+format+"\n", append([]any{bad, n}, args...)...)
	}
}

// note adds one line to the human-readable summary.
func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// timing records a timing summary line: median, the highest percentile
// with at least ten samples beyond it, and the sample count.
func (b *bench) timing(name, unit string, xs []float64) summary {
	s := summarize(xs)
	if s.P > 0 {
		b.note("%-12s median %.4g %s, p%d %.4g %s, n=%d", name, s.Median, unit, s.P, s.PValue, unit, s.N)
	} else {
		b.note("%-12s median %.4g %s, upper quartile %.4g %s, max %.4g %s, n=%d (too few samples for a tail percentile)", name, s.Median, unit, s.Q3, unit, s.Max, unit, s.N)
	}
	return s
}

// setup runs fn setupRepeats times (once in a traced run, which
// reports no setup_s) and records setup_s as the median.
func (b *bench) setup(fn func(i int) error) error {
	n := setupRepeats
	if b.traced {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.timing("setup_s", "s", secs)
	b.set("setup_s", medianOf(secs))
	return nil
}

// setLatencies records the end-to-end latency metrics from the
// operation latencies (ms) of the batch workloads' passes at the low
// and the high load level.
func (b *bench) setLatencies(lo, hi []float64) {
	los := b.timing("lo_ms", "ms", lo)
	his := b.timing("hi_ms", "ms", hi)
	b.set("lo.p50_ms", los.Median)
	b.set("lo.p99_ms", los.tail())
	b.set("hi.p99_ms", his.tail())
}

// memDelta measures the runtime cost of one traced pass.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns allocated MB, GC cycles and GC pause ms since startMem.
func (d *memDelta) stop() (allocMB, cycles, pauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-d.before.TotalAlloc) / 1e6,
		float64(after.NumGC - d.before.NumGC),
		float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}

// runtimeSamples collects memDelta results across traced passes.
type runtimeSamples struct{ alloc, cycles, pause []float64 }

func (r *runtimeSamples) add(d *memDelta) {
	a, c, p := d.stop()
	r.alloc = append(r.alloc, a)
	r.cycles = append(r.cycles, c)
	r.pause = append(r.pause, p)
}

func (b *bench) setRuntime(r *runtimeSamples) {
	b.set("runtime.alloc_mb", medianOf(r.alloc))
	b.set("runtime.gc_cycles", medianOf(r.cycles))
	b.set("runtime.gc_pause_ms", medianOf(r.pause))
}

// layer is one layer's share of a traced workload, for the
// predicted-vs-measured breakdown.
type layer struct {
	name string
	ms   float64
}

// predictLayers prints the layers by measured time next to the
// layers the workload was predicted to load most, and calls out a
// mismatch when the busiest layer is not among them.
func (b *bench) predictLayers(predicted []string, layers []layer) {
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].ms > layers[j].ms })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f ms", l.name, l.ms))
	}
	b.note("layers by time: %s", strings.Join(parts, ", "))
	verdict := "matches the measurement"
	if len(layers) == 0 || !slices.Contains(predicted, layers[0].name) {
		verdict = "CONTRADICTED: the busiest layer is " + layers[0].name
	}
	b.note("predicted dominant layer: %s (%s)", strings.Join(predicted, " / "), verdict)
}

// print writes the summary lines and, last, the JSON result.
func (b *bench) print() {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": b.values[d.name], "unit": d.unit}
	}
	share := 0.0
	if b.attempted > 0 {
		share = float64(b.failed) / float64(b.attempted)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# host: %s\n", hostStamp())
	fmt.Fprintf(w, "# workload %s seed %d, %v timed, traced=%v\n", b.workload, b.seed, b.seconds, b.traced)
	for _, l := range b.lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
	fmt.Fprintf(w, "# error_share %.6g (%d failed of %d attempted)\n", share, b.failed, b.attempted)
	line, _ := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && b.attempted > 0,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   metrics,
	})
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// hostStamp names the machine a result was measured on. Results from
// different hosts are not comparable.
func hostStamp() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
