package analysis

import (
	"bytes"
	"reflect"
	"testing"

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

// TestIndexFromReaderMatchesNewIndex pins the column source of the
// core: a build off the binary columns answers every accessor like the
// oracle over the materialized snapshot.
func TestIndexFromReaderMatchesNewIndex(t *testing.T) {
	s, scheme := testSnapshot(t)
	checkIndexMatchesDirect(t, "testSnapshot", columnIndex(t, s, scheme), s, scheme)

	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		gs, gscheme := genSnapshot(t, ixp)
		checkIndexMatchesDirect(t, ixp, columnIndex(t, gs, gscheme), gs, gscheme)
	}

	es, escheme := edgeSnapshot(t)
	checkIndexMatchesDirect(t, "edge", columnIndex(t, es, escheme), es, escheme)

	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	empty.Normalize()
	escheme = dictionary.ProfileByName("DE-CIX")
	checkIndexMatchesDirect(t, "empty", columnIndex(t, empty, escheme), empty, escheme)
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
	checkIndexMatchesDirect(t, "json-fallback", ix, s, scheme)
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

// TestIndexSeriesFromColumnsAllocs extends the arena pin to the
// series build: the chain state it keeps (dense ids, per-set
// reductions, refcounts) is flat arrays and flat-keyed maps, so its
// allocation count is route-independent too.
func TestIndexSeriesFromColumnsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	s, scheme := genSnapshot(t, "DE-CIX")
	data := binBytes(t, s)
	routes := len(s.Routes)
	allocs := testing.AllocsPerRun(10, func() {
		sr, err := collector.NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := IndexSeriesFromReader(sr, scheme); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("routes=%d series=%.0f allocs/op", routes, allocs)
	if allocs > float64(routes)/10 {
		t.Errorf("series build allocates per route: %.0f allocs for %d routes", allocs, routes)
	}
}

// FuzzIndexFromColumns feeds arbitrary bytes through the open →
// column-build path: whatever decodes must answer every accessor like
// the oracle over the materialized snapshot, and whatever doesn't must
// fail cleanly.
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
		// bytes must also materialize — and answer like the oracle.
		full, err := sr.Snapshot()
		if err != nil {
			t.Fatalf("columns decoded but Snapshot failed: %v", err)
		}
		checkIndexMatchesDirect(t, "fuzz", ix, full, scheme)
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

// BenchmarkIndexDecodeThenNew is the same build through the route
// source: materialize []bgp.Route, then run the core over each route's
// own attribute slices.
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
