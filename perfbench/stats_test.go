package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ixplight/internal/telemetry"
)

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1000, 99}, {999, 98}, {53, 81}, {210, 95}, {20, 50}, {11, 0}, {10, 0}, {0, 0},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 1; n <= 3000; n++ {
		q := highestPercentile(n)
		if q == 0 {
			continue
		}
		if beyond := n - rankOf(q, n); beyond < minTail {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, q, beyond)
		}
		if q < 99 && n-rankOf(q+1, n) >= minTail {
			t.Fatalf("n=%d: p%d is not the highest supported percentile", n, q)
		}
	}
}

func TestSummarizeReportsTailAndCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.P != 99 || s.PValue != 990 || s.tail() != 990 {
		t.Fatalf("summary = %+v", s)
	}
	few := summarize([]float64{3, 1, 2})
	if few.P != 0 || few.tail() != 3 || few.Median != 2 {
		t.Fatalf("summary of three samples = %+v, want no percentile and the upper quartile as tail", few)
	}
}

// A stall must show in the latency of the requests queued behind it:
// each is timed from when it was due, not from when a worker took it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stalled, stall = 10, 40 * time.Millisecond
	res := openLoop(40, 1000, 1, func(i int) error {
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res.Latency) != 40 || res.Failures != 0 {
		t.Fatalf("got %d latencies, %d failures", len(res.Latency), res.Failures)
	}
	// Request 11 was due 1 ms after the stalled one started and could
	// only start once it ended, so it waited most of the stall.
	if got := res.Latency[stalled+1]; got < 30 {
		t.Errorf("latency of the request behind a %v stall = %.2f ms, want >= 30 ms", stall, got)
	}
	// The generator itself kept the schedule: the wait for the busy
	// worker is the system's latency, not generator lateness.
	if got := res.Late[stalled+1]; got > 20 {
		t.Errorf("generator lateness = %.2f ms, want the worker wait excluded", got)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(10, 5000, 2, func(i int) error {
		if i%5 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if res.Failures != 2 {
		t.Fatalf("failures = %d, want 2", res.Failures)
	}
}

func TestOutputChecksFailOnCorruption(t *testing.T) {
	outs := [][]byte{[]byte("Table 1\nDE-CIX 42\n"), []byte("figure1,DE-CIX,IPv4\n")}
	want := digestOutputs(outs)
	if n := mismatches(digestOutputs(outs), want); n != 0 {
		t.Fatalf("identical outputs: %d mismatches", n)
	}
	if n := outputMismatches(outs, outs); n != 0 {
		t.Fatalf("identical outputs: %d byte mismatches", n)
	}
	corrupt := [][]byte{bytes.Clone(outs[0]), bytes.Clone(outs[1])}
	corrupt[1][3] ^= 1
	if n := mismatches(digestOutputs(corrupt), want); n != 1 {
		t.Errorf("one corrupted output: %d digest mismatches, want 1", n)
	}
	if n := outputMismatches(corrupt, outs); n != 1 {
		t.Errorf("one corrupted output: %d byte mismatches, want 1", n)
	}
	if n := mismatches(digestOutputs(outs[:1]), want); n != 1 {
		t.Errorf("missing output: %d mismatches, want 1", n)
	}
}

func TestRecordedDigestsCoverLowSeeds(t *testing.T) {
	d, ok, err := recordedDigests(1)
	if err != nil || !ok || len(d) == 0 {
		t.Fatalf("recordedDigests(1) = %d digests, %v, %v", len(d), ok, err)
	}
}

func TestLedgerShape(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{ID: "1", Name: "bench.lab-synthetic"},
		{ID: "2", Parent: "1", Name: "bench.pass"},
		{ID: "3", Parent: "2", Name: "report.experiment"},
	}
	if r, o := ledgerShape(spans); r != 1 || o != 0 {
		t.Fatalf("one tree: %d roots, %d orphans", r, o)
	}
	spans = append(spans, telemetry.SpanRecord{ID: "4", Parent: "9", Name: "lost"}, telemetry.SpanRecord{ID: "5", Name: "second"})
	if r, o := ledgerShape(spans); r != 2 || o != 1 {
		t.Fatalf("with an orphan and a second root: %d roots, %d orphans", r, o)
	}
}
