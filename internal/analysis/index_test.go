package analysis

import (
	"reflect"
	"sync"
	"testing"

	"ixplight/internal/asdb"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// genSnapshot builds a mid-size generated workload so the equivalence
// check also covers ext/large communities, prepends and both families
// at realistic diversity.
func genSnapshot(t *testing.T, ixp string) (*collector.Snapshot, *dictionary.Scheme) {
	t.Helper()
	p := ixpgen.ProfileByName(ixp)
	if p == nil {
		t.Fatalf("unknown profile %q", ixp)
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.01})
	if err != nil {
		t.Fatalf("generate %s: %v", ixp, err)
	}
	return w.Snapshot("2021-10-04"), p.Scheme
}

// checkIndexMatchesDirect asserts every accessor of ix — however it
// was built — reproduces its direct-classify twin over the
// materialized snapshot s exactly, for both families.
func checkIndexMatchesDirect(t *testing.T, tag string, ix *Index, s *collector.Snapshot, scheme *dictionary.Scheme) {
	t.Helper()
	reg := asdb.Default()
	for _, v6 := range []bool{false, true} {
		eq := func(name string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s (v6=%v): indexed %+v != direct %+v", tag, name, v6, got, want)
			}
		}
		eq("Usage", ix.Usage(v6), ComputeUsageDirect(s, scheme, v6))
		eq("Mix", ix.Mix(v6), ComputeMixDirect(s, scheme, v6))
		a, i := ix.ActionInfoSplit(v6)
		da, di := ActionInfoSplitDirect(s, scheme, v6)
		eq("ActionInfoSplit", [2]int{a, i}, [2]int{da, di})
		eq("FlavourActions", ix.FlavourActions(v6), ComputeFlavourActionsDirect(s, scheme, v6))
		eq("PerASActionCounts", ix.PerASActionCounts(v6), PerASActionCountsDirect(s, scheme, v6))
		eq("RouteCommCorrelation", ix.RouteCommCorrelation(v6), RouteCommCorrelationDirect(s, scheme, v6))
		eq("ASesPerActionType", ix.ASesPerActionType(v6), ASesPerActionTypeDirect(s, scheme, v6))
		eq("OccurrencesPerType", ix.OccurrencesPerType(v6), OccurrencesPerTypeDirect(s, scheme, v6))
		for _, k := range []int{0, 3, 20} {
			eq("TopActionCommunities", ix.TopActionCommunities(v6, k), TopActionCommunitiesDirect(s, scheme, v6, k))
			eq("NonMemberTargeting", ix.NonMemberTargeting(v6, k), ComputeNonMemberTargetingDirect(s, scheme, v6, k))
			eq("CulpritRanking", ix.CulpritRanking(v6, k), CulpritRankingDirect(s, scheme, v6, k))
			eq("TopTargets", ix.TopTargets(v6, k), TopTargetsDirect(s, scheme, v6, k))
		}
		eq("CategoryBreakdown", ix.CategoryBreakdown(reg, v6), ComputeCategoryBreakdownDirect(s, scheme, reg, v6))
		eq("HygieneFilterImpact", ix.HygieneFilterImpact(v6, []int{0, 2, 10}), hygieneFilterImpactDirect(s, v6, []int{0, 2, 10}))
		eq("CommunityCountPercentiles",
			ix.CommunityCountPercentiles(v6, []float64{0, 50, 90, 100}),
			communityCountPercentilesDirect(s, v6, []float64{0, 50, 90, 100}))
		eq("Counts", ix.Counts(v6), countSnapshotDirect(s, v6))
	}
}

func TestIndexMatchesDirect(t *testing.T) {
	s, scheme := testSnapshot(t)
	checkIndexMatchesDirect(t, "testSnapshot", NewIndex(s, scheme), s, scheme)

	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		gs, gscheme := genSnapshot(t, ixp)
		checkIndexMatchesDirect(t, ixp, NewIndex(gs, gscheme), gs, gscheme)
	}

	es, escheme := edgeSnapshot(t)
	checkIndexMatchesDirect(t, "edge", NewIndex(es, escheme), es, escheme)

	// Empty snapshot: accessors must keep the direct twins' nil/empty
	// semantics exactly.
	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	checkIndexMatchesDirect(t, "empty", NewIndex(empty, dictionary.ProfileByName("DE-CIX")), empty, dictionary.ProfileByName("DE-CIX"))
}

// TestWrapperDispatch pins the single dispatch path: a wrapper builds
// the shared index on first use and every later lookup reuses it; the
// scheme-independent analyses piggyback on it while it is cached and
// fall back to walking the routes once it is invalidated.
func TestWrapperDispatch(t *testing.T) {
	s, scheme := testSnapshot(t)
	InvalidateIndex(s)
	t.Cleanup(func() { InvalidateIndex(s) })

	if indexForSnapshot(s) != nil {
		t.Fatal("indexForSnapshot must miss before any wrapper ran")
	}
	want := NewIndex(s, scheme).Usage(false)
	if got := ComputeUsage(s, scheme, false); !reflect.DeepEqual(got, want) {
		t.Errorf("ComputeUsage %+v != index %+v", got, want)
	}
	ix := indexForSnapshot(s)
	if ix == nil {
		t.Fatal("ComputeUsage must cache the index it built")
	}
	if again := IndexFor(s, scheme); again != ix {
		t.Error("IndexFor must return the cached index")
	}
	if got, want := CountSnapshot(s, false), countSnapshotDirect(s, false); !reflect.DeepEqual(got, want) {
		t.Errorf("CountSnapshot via index %+v != direct %+v", got, want)
	}

	InvalidateIndex(s)
	if indexForSnapshot(s) != nil {
		t.Error("indexForSnapshot must miss after InvalidateIndex")
	}
	if got, want := CountSnapshot(s, false), countSnapshotDirect(s, false); !reflect.DeepEqual(got, want) {
		t.Errorf("CountSnapshot fallback %+v != direct %+v", got, want)
	}
}

// TestIndexConcurrentUse pins the concurrency contract: one Index
// shared by many goroutines, every accessor exercised, plus concurrent
// cache hits through IndexFor — run under -race by `make check`.
func TestIndexConcurrentUse(t *testing.T) {
	s, scheme := genSnapshot(t, "LINX")
	ix := NewIndex(s, scheme)
	reg := asdb.Default()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v6 := g%2 == 1
			for iter := 0; iter < 4; iter++ {
				_ = ix.Usage(v6)
				_ = ix.Mix(v6)
				_, _ = ix.ActionInfoSplit(v6)
				_ = ix.FlavourActions(v6)
				_ = ix.PerASActionCounts(v6)
				_ = ix.RouteCommCorrelation(v6)
				_ = ix.ASesPerActionType(v6)
				_ = ix.OccurrencesPerType(v6)
				_ = ix.TopActionCommunities(v6, 10)
				_ = ix.NonMemberTargeting(v6, 10)
				_ = ix.CulpritRanking(v6, 10)
				_ = ix.TopTargets(v6, 10)
				_ = ix.CategoryBreakdown(reg, v6)
				_ = ix.HygieneFilterImpact(v6, []int{1, 5, 15})
				_ = ix.CommunityCountPercentiles(v6, []float64{50, 99})
				_ = ix.Counts(v6)
				_ = ix.Class(0)
			}
			// Concurrent cache traffic: hits, singleflight builds and
			// scheme-independent lookups must all be race-clean.
			_ = IndexFor(s, scheme)
			_ = indexForSnapshot(s)
		}(g)
	}
	wg.Wait()
	t.Cleanup(func() { InvalidateIndex(s) })
}

// TestIndexCacheEviction keeps the cache bounded: filling it past
// indexCacheCap evicts the oldest entry.
func TestIndexCacheEviction(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	first := &collector.Snapshot{IXP: "DE-CIX", Date: "d0"}
	_ = IndexFor(first, scheme)
	snaps := make([]*collector.Snapshot, indexCacheCap)
	for i := range snaps {
		snaps[i] = &collector.Snapshot{IXP: "DE-CIX", Date: "later"}
		_ = IndexFor(snaps[i], scheme)
	}
	if indexForSnapshot(first) != nil {
		t.Error("oldest entry must be evicted once the cache is full")
	}
	for _, s := range snaps {
		InvalidateIndex(s)
	}
}
