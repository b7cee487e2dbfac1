package analysis

import (
	"sync"
	"testing"

	"ixplight/internal/telemetry"
)

// setTelemetryForTest installs a fresh registry and restores the
// disabled state (and a clean index cache) when the test ends.
func setTelemetryForTest(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	SetTelemetry(reg)
	t.Cleanup(func() {
		SetTelemetry(nil)
	})
	return reg
}

// TestIndexCacheMetrics walks one snapshot through the cache: first
// lookup is a miss that builds, repeats are hits, invalidation shows
// up as an eviction, and the entry gauge tracks the cache size.
func TestIndexCacheMetrics(t *testing.T) {
	reg := setTelemetryForTest(t)
	m := tel()
	s, scheme := genSnapshot(t, "DE-CIX")
	t.Cleanup(func() { InvalidateIndex(s) })
	InvalidateIndex(s) // drop anything another test may have cached
	hits0, misses0 := m.cacheHits.Value(), m.cacheMisses.Value()

	IndexFor(s, scheme)
	if got := m.cacheMisses.Value() - misses0; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := m.buildSeconds.Count(); got < 1 {
		t.Errorf("build observations = %d, want >= 1", got)
	}
	IndexFor(s, scheme)
	IndexFor(s, scheme)
	if got := m.cacheHits.Value() - hits0; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if m.cacheEntries.Value() < 1 {
		t.Errorf("cache entries gauge = %d, want >= 1", m.cacheEntries.Value())
	}

	evictions0 := m.evictions.Value()
	InvalidateIndex(s)
	if got := m.evictions.Value() - evictions0; got != 1 {
		t.Errorf("evictions after invalidate = %d, want 1", got)
	}
	// The registry backing the instruments is the one we installed.
	if reg.Snapshot()["ixplight_analysis_index_cache_misses_total"] == nil {
		t.Error("metrics not registered on the installed registry")
	}
}

// TestIndexCoalescedBuilds: concurrent first lookups must build once
// and record the latecomers as coalesced.
func TestIndexCoalescedBuilds(t *testing.T) {
	setTelemetryForTest(t)
	m := tel()
	s, scheme := genSnapshot(t, "LINX")
	t.Cleanup(func() { InvalidateIndex(s) })
	InvalidateIndex(s)
	builds0 := m.buildSeconds.Count()

	const goroutines = 8
	var wg sync.WaitGroup
	ixs := make([]*Index, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ixs[g] = IndexFor(s, scheme)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ixs[g] != ixs[0] {
			t.Fatal("concurrent lookups returned different indexes")
		}
	}
	if got := m.buildSeconds.Count() - builds0; got != 1 {
		t.Errorf("builds = %d, want exactly 1", got)
	}
	// Every goroutine is accounted for: 1 miss + (hits + coalesced) = 8.
	total := m.cacheMisses.Value() + m.cacheHits.Value() + m.coalesced.Value()
	if total < goroutines {
		t.Errorf("accounted lookups = %d, want >= %d", total, goroutines)
	}
}

// TestIndexBuildSpan: builds must emit an analysis.index_build span
// carrying the snapshot identity.
func TestIndexBuildSpan(t *testing.T) {
	reg := setTelemetryForTest(t)
	sink := &telemetry.RecordingSink{}
	reg.SetSpanSink(sink)
	s, scheme := genSnapshot(t, "DE-CIX")
	NewIndex(s, scheme)
	spans := sink.Named("analysis.index_build")
	if len(spans) != 1 {
		t.Fatalf("build spans = %d, want 1", len(spans))
	}
	attrs := map[string]string{}
	for _, a := range spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["ixp"] != s.IXP || attrs["date"] != s.Date {
		t.Errorf("span attrs = %v, want ixp=%s date=%s", attrs, s.IXP, s.Date)
	}
}

// TestTelemetryOffCostsNothingVisible: with no registry installed the
// cache must behave identically (a correctness guard for the
// nil-telemetry fast path).
func TestTelemetryOffCostsNothingVisible(t *testing.T) {
	SetTelemetry(nil)
	s, scheme := genSnapshot(t, "DE-CIX")
	t.Cleanup(func() { InvalidateIndex(s) })
	InvalidateIndex(s)
	a := IndexFor(s, scheme)
	b := IndexFor(s, scheme)
	if a == nil || a != b {
		t.Error("cache broken with telemetry off")
	}
}
