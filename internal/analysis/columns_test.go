package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// binBytes encodes s with the columnar binary codec.
func binBytes(tb testing.TB, s *collector.Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := collector.WriteSnapshot(&buf, s, collector.CodecBinary); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// columnIndex round-trips s through the binary codec and builds the
// index column-direct.
func columnIndex(tb testing.TB, s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	tb.Helper()
	sr, err := collector.NewSnapshotReaderBytes(binBytes(tb, s), "x.bin")
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	ix, err := IndexFromReader(sr, scheme)
	if err != nil {
		tb.Fatalf("IndexFromReader: %v", err)
	}
	return ix
}

// checkIndexesAgree asserts every accessor of got answers identically
// to want — the column-direct build's equivalence contract against
// the route-walking NewIndex.
func checkIndexesAgree(t *testing.T, tag string, got, want *Index) {
	t.Helper()
	reg := asdb.Default()
	for _, v6 := range []bool{false, true} {
		eq := func(name string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: %s (v6=%v): columns %+v != routes %+v", tag, name, v6, g, w)
			}
		}
		eq("Usage", got.Usage(v6), want.Usage(v6))
		eq("Mix", got.Mix(v6), want.Mix(v6))
		ga, gi := got.ActionInfoSplit(v6)
		wa, wi := want.ActionInfoSplit(v6)
		eq("ActionInfoSplit", [2]int{ga, gi}, [2]int{wa, wi})
		eq("FlavourActions", got.FlavourActions(v6), want.FlavourActions(v6))
		eq("PerASActionCounts", got.PerASActionCounts(v6), want.PerASActionCounts(v6))
		eq("RouteCommCorrelation", got.RouteCommCorrelation(v6), want.RouteCommCorrelation(v6))
		eq("ASesPerActionType", got.ASesPerActionType(v6), want.ASesPerActionType(v6))
		eq("OccurrencesPerType", got.OccurrencesPerType(v6), want.OccurrencesPerType(v6))
		for _, k := range []int{0, 3, 20} {
			eq("TopActionCommunities", got.TopActionCommunities(v6, k), want.TopActionCommunities(v6, k))
			eq("NonMemberTargeting", got.NonMemberTargeting(v6, k), want.NonMemberTargeting(v6, k))
			eq("CulpritRanking", got.CulpritRanking(v6, k), want.CulpritRanking(v6, k))
			eq("TopTargets", got.TopTargets(v6, k), want.TopTargets(v6, k))
		}
		eq("CategoryBreakdown", got.CategoryBreakdown(reg, v6), want.CategoryBreakdown(reg, v6))
		eq("HygieneFilterImpact", got.HygieneFilterImpact(v6, []int{0, 2, 10}), want.HygieneFilterImpact(v6, []int{0, 2, 10}))
		eq("CommunityCountPercentiles",
			got.CommunityCountPercentiles(v6, []float64{0, 50, 90, 100}),
			want.CommunityCountPercentiles(v6, []float64{0, 50, 90, 100}))
		eq("Counts", got.Counts(v6), want.Counts(v6))
		// Counts a second time: the column path releases its prefix
		// slabs after the lazy count, which must be memoized.
		eq("Counts(again)", got.Counts(v6), want.Counts(v6))
	}
}

// edgeSnapshot builds a partial snapshot covering the codec's
// nil-vs-empty distinction on every community flavour, plus
// MemberErrors and a degraded member list.
func edgeSnapshot(t *testing.T) (*collector.Snapshot, *dictionary.Scheme) {
	t.Helper()
	gs, scheme := genSnapshot(t, "DE-CIX")
	n := 12
	if len(gs.Routes) < n {
		t.Fatalf("generated snapshot too small: %d routes", len(gs.Routes))
	}
	routes := make([]bgp.Route, n)
	copy(routes, gs.Routes[:n])
	routes[0].Communities = nil
	routes[1].Communities = []bgp.Community{}
	routes[2].ExtCommunities = nil
	routes[2].LargeCommunities = nil
	routes[3].ExtCommunities = []bgp.ExtendedCommunity{}
	routes[3].LargeCommunities = []bgp.LargeCommunity{}
	routes[4].Communities = nil
	routes[4].ExtCommunities = nil
	routes[4].LargeCommunities = nil
	s := &collector.Snapshot{
		IXP:     gs.IXP,
		Date:    gs.Date,
		Members: gs.Members,
		Routes:  routes,
		Partial: true,
		MemberErrors: []collector.MemberError{
			{ASN: 64999, Stage: collector.StageRoutes, Err: "timeout", Attempts: 3},
		},
	}
	s.Normalize()
	return s, scheme
}

func TestIndexFromReaderMatchesNewIndex(t *testing.T) {
	s, scheme := testSnapshot(t)
	checkIndexesAgree(t, "testSnapshot", columnIndex(t, s, scheme), NewIndex(s, scheme))

	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		gs, gscheme := genSnapshot(t, ixp)
		checkIndexesAgree(t, ixp, columnIndex(t, gs, gscheme), NewIndex(gs, gscheme))
	}

	es, escheme := edgeSnapshot(t)
	checkIndexesAgree(t, "edge", columnIndex(t, es, escheme), NewIndex(es, escheme))

	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	empty.Normalize()
	checkIndexesAgree(t, "empty",
		columnIndex(t, empty, dictionary.ProfileByName("DE-CIX")),
		NewIndex(empty, dictionary.ProfileByName("DE-CIX")))
}

// TestIndexFromReaderNonBinary pins the transparent fallback: a
// non-columnar codec materializes and classifies the routes.
func TestIndexFromReaderNonBinary(t *testing.T) {
	s, scheme := testSnapshot(t)
	var buf bytes.Buffer
	if err := collector.WriteSnapshot(&buf, s, collector.CodecJSON); err != nil {
		t.Fatal(err)
	}
	sr, err := collector.NewSnapshotReaderBytes(buf.Bytes(), "x.json")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexesAgree(t, "json-fallback", ix, NewIndex(s, scheme))
	if ix.Snapshot().Routes == nil {
		t.Error("fallback index must carry the materialized snapshot")
	}
}

// TestAttachIndexDispatch pins that a pinned index answers the
// analysis wrappers on its header-only snapshot, which has no routes
// to build an index from or to walk.
func TestAttachIndexDispatch(t *testing.T) {
	s, scheme := testSnapshot(t)
	ix := columnIndex(t, s, scheme)
	head := ix.Snapshot()
	if head.Routes != nil {
		t.Fatal("column index snapshot must be header-only")
	}
	AttachIndex(head, ix)

	if got := IndexFor(head, scheme); got != ix {
		t.Fatal("IndexFor must return the pinned index")
	}
	if got := indexForSnapshot(head); got != ix {
		t.Fatal("indexForSnapshot must return the pinned index")
	}
	for _, v6 := range []bool{false, true} {
		if got, want := ComputeUsage(head, scheme, v6), ComputeUsageDirect(s, scheme, v6); !reflect.DeepEqual(got, want) {
			t.Errorf("pinned ComputeUsage(v6=%v) %+v != direct %+v", v6, got, want)
		}
		if got, want := CountSnapshot(head, v6), countSnapshotDirect(s, v6); !reflect.DeepEqual(got, want) {
			t.Errorf("pinned CountSnapshot(v6=%v) %+v != direct %+v", v6, got, want)
		}
	}
}

// TestIndexFromColumnsAllocs pins the arena contract: the
// column-direct build's steady-state allocations are the Index's own
// storage — O(intern tables), not O(routes). (The decode path's
// alloc *count* is also slab-bounded; what it pays per route is
// bytes and time, which the benchmarks cover — so the pin here is
// route-independence plus an absolute ceiling, not a ratio.)
func TestIndexFromColumnsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	s, scheme := genSnapshot(t, "DE-CIX")
	data := binBytes(t, s)
	routes := len(s.Routes)

	colRun := func() {
		sr, err := collector.NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := IndexFromReader(sr, scheme); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch pool so the measurement sees steady state.
	for i := 0; i < 3; i++ {
		colRun()
	}
	colAllocs := testing.AllocsPerRun(10, colRun)

	decAllocs := testing.AllocsPerRun(10, func() {
		sr, err := collector.NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			t.Fatal(err)
		}
		full, err := sr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		NewIndex(full, scheme)
	})

	t.Logf("routes=%d columns=%.0f allocs/op decode+index=%.0f allocs/op", routes, colAllocs, decAllocs)
	if colAllocs > float64(routes)/10 {
		t.Errorf("column build allocates per route: %.0f allocs for %d routes", colAllocs, routes)
	}
	if colAllocs > 512 {
		t.Errorf("column build steady state: %.0f allocs/op, ceiling 512", colAllocs)
	}
}

// FuzzIndexFromColumns feeds arbitrary bytes through the open →
// column-build path: whatever decodes must index identically to the
// materialized NewIndex, and whatever doesn't must fail cleanly.
func FuzzIndexFromColumns(f *testing.F) {
	seed, scheme := func() (*collector.Snapshot, *dictionary.Scheme) {
		s := &collector.Snapshot{
			IXP:  "DE-CIX",
			Date: "2021-10-04",
			Members: []collector.Member{
				{ASN: 100, IPv4: true, IPv6: true},
				{ASN: 6939, IPv4: true},
			},
			Routes: []bgp.Route{
				{ASPath: bgp.ASPath{100}, Communities: []bgp.Community{bgp.MustParseCommunity("0:15169")}},
			},
		}
		s.Normalize()
		return s, dictionary.ProfileByName("DE-CIX")
	}()
	var buf bytes.Buffer
	if err := collector.WriteSnapshot(&buf, seed, collector.CodecBinary); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("IXPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := collector.NewSnapshotReaderBytes(data, "f.bin")
		if err != nil {
			return
		}
		ix, err := IndexFromReader(sr, scheme)
		if err != nil {
			return
		}
		// The column build does not consume the reader (and the
		// non-binary fallback caches its materialization), so the same
		// bytes must also materialize — and classify identically.
		full, err := sr.Snapshot()
		if err != nil {
			t.Fatalf("columns decoded but Snapshot failed: %v", err)
		}
		want := NewIndex(full, scheme)
		for _, v6 := range []bool{false, true} {
			if got, w := ix.Usage(v6), want.Usage(v6); !reflect.DeepEqual(got, w) {
				t.Errorf("Usage(v6=%v): %+v != %+v", v6, got, w)
			}
			if got, w := ix.Mix(v6), want.Mix(v6); !reflect.DeepEqual(got, w) {
				t.Errorf("Mix(v6=%v): %+v != %+v", v6, got, w)
			}
			if got, w := ix.FlavourActions(v6), want.FlavourActions(v6); !reflect.DeepEqual(got, w) {
				t.Errorf("FlavourActions(v6=%v): %+v != %+v", v6, got, w)
			}
			if got, w := ix.PerASActionCounts(v6), want.PerASActionCounts(v6); !reflect.DeepEqual(got, w) {
				t.Errorf("PerASActionCounts(v6=%v): %+v != %+v", v6, got, w)
			}
			if got, w := ix.Counts(v6), want.Counts(v6); !reflect.DeepEqual(got, w) {
				t.Errorf("Counts(v6=%v): %+v != %+v", v6, got, w)
			}
		}
	})
}

// benchWorkload is the AMS-IX benchmark snapshot in binary form.
func benchWorkload(b *testing.B) ([]byte, *dictionary.Scheme, int) {
	b.Helper()
	p := ixpgen.ProfileByName("AMS-IX")
	if p == nil {
		b.Fatal("unknown profile AMS-IX")
	}
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	s := w.Snapshot("2021-10-04")
	return binBytes(b, s), p.Scheme, len(s.Routes)
}

// BenchmarkIndexFromColumns measures the column-direct build: open
// the encoded snapshot, classify the intern tables, aggregate off the
// columns. Compare against BenchmarkIndexDecodeThenNew.
func BenchmarkIndexFromColumns(b *testing.B) {
	data, scheme, routes := benchWorkload(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := collector.NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := IndexFromReader(sr, scheme); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(routes), "routes")
}

// BenchmarkIndexDecodeThenNew is the baseline the tentpole displaces:
// materialize []bgp.Route, then classify route by route.
func BenchmarkIndexDecodeThenNew(b *testing.B) {
	data, scheme, routes := benchWorkload(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := collector.NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			b.Fatal(err)
		}
		s, err := sr.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		NewIndex(s, scheme)
	}
	b.ReportMetric(float64(routes), "routes")
}
