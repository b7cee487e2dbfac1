package analysis

import (
	"sync/atomic"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/telemetry"
)

// indexMetrics instruments the shared index cache. The analysis entry
// points are package-level functions, so the instrument set lives in a
// package-level atomic rather than threading through every wrapper
// signature; SetTelemetry installs it once at process start.
type indexMetrics struct {
	reg          *telemetry.Registry
	buildSeconds *telemetry.Histogram
	builds       *telemetry.CounterVec
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	evictions    *telemetry.Counter
	coalesced    *telemetry.Counter
	cacheEntries *telemetry.Gauge
}

var indexTel atomic.Pointer[indexMetrics]

// SetTelemetry instruments the analysis package (index builds and the
// shared index cache) on the given registry. Passing nil turns
// instrumentation back off. Like every telemetry hook in this repo,
// the disabled state costs one atomic load on the instrumented paths.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		indexTel.Store(nil)
		return
	}
	indexTel.Store(&indexMetrics{
		reg: reg,
		buildSeconds: reg.Histogram("ixplight_analysis_index_build_seconds",
			"Classified-index construction time.", nil),
		builds: reg.CounterVec("ixplight_analysis_index_builds_total",
			"Classified-index constructions by source, all through the one classify-and-fold core: routes folds a materialized []bgp.Route, columns folds a binary snapshot's route block, delta advances the previous day's index by a snapshot delta.", "source"),
		cacheHits: reg.Counter("ixplight_analysis_index_cache_hits_total",
			"Index cache lookups answered by an already-built index."),
		cacheMisses: reg.Counter("ixplight_analysis_index_cache_misses_total",
			"Index cache lookups that triggered a build."),
		evictions: reg.Counter("ixplight_analysis_index_cache_evictions_total",
			"Index cache entries dropped (FIFO eviction or invalidation)."),
		coalesced: reg.Counter("ixplight_analysis_index_coalesced_builds_total",
			"Index cache lookups that joined another goroutine's in-flight build."),
		cacheEntries: reg.Gauge("ixplight_analysis_index_cache_entries",
			"Entries currently held by the index cache."),
	})
}

// tel reads the installed instrument set (nil when off).
func tel() *indexMetrics { return indexTel.Load() }

func (t *indexMetrics) hit() {
	if t != nil {
		t.cacheHits.Inc()
	}
}

func (t *indexMetrics) miss() {
	if t != nil {
		t.cacheMisses.Inc()
	}
}

func (t *indexMetrics) coalesce() {
	if t != nil {
		t.coalesced.Inc()
	}
}

// cache publishes the cache size after a mutation; dropped counts
// entries removed by the same mutation.
func (t *indexMetrics) cache(entries, dropped int) {
	if t == nil {
		return
	}
	t.cacheEntries.Set(int64(entries))
	t.evictions.Add(int64(dropped))
}

// traceBuild opens the analysis.index_build span for one construction
// over the snapshot header h and counts the build by source ("routes",
// "columns" or "delta" — the rebuild-vs-advance split). The returned
// func records the build time and ends the span; call it when the
// build returns.
func traceBuild(h *collector.Snapshot, source string) func() {
	t := tel()
	if t == nil {
		return func() {}
	}
	t.builds.With(source).Inc()
	sp := t.reg.StartSpan("analysis.index_build")
	sp.SetAttr("ixp", h.IXP)
	sp.SetAttr("date", h.Date)
	sp.SetAttr("source", source)
	t0 := time.Now()
	return func() {
		t.buildSeconds.ObserveDuration(time.Since(t0))
		sp.End()
	}
}
