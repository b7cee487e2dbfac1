package analysis

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
	"ixplight/internal/netutil"
)

// evolvedChain materializes an evolved daily series plus its delta
// chain: the full snapshots (the ground truth each day), day 0 in
// binary form, and one encoded delta per later day.
func evolvedChain(tb testing.TB, ixp string, o ixpgen.TemporalOptions, churn float64) (days []*collector.Snapshot, day0 []byte, deltas [][]byte, scheme *dictionary.Scheme) {
	tb.Helper()
	p := ixpgen.ProfileByName(ixp)
	if p == nil {
		tb.Fatalf("no profile %q", ixp)
	}
	var enc *collector.DeltaEncoder
	err := ixpgen.EvolveSeries(*p, o, churn, func(day int, s *collector.Snapshot) error {
		days = append(days, s)
		if day == 0 {
			day0 = binBytes(tb, s)
			var err error
			enc, err = collector.NewDeltaEncoder(s)
			return err
		}
		buf, err := enc.Encode(s)
		if err != nil {
			return err
		}
		deltas = append(deltas, buf)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return days, day0, deltas, p.Scheme
}

// TestAdvanceMatchesFullRebuild pins the incremental equivalence: a
// series index advanced delta-by-delta answers every accessor exactly
// like the oracle over the materialized day — across route churn,
// weekly member swaps (the non-member/culprit flips), and a
// collection valley with its next-day recovery.
func TestAdvanceMatchesFullRebuild(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 16, Seed: 42, Scale: 0.02, ValleyDays: []int{11}}
	days, day0, deltas, scheme := evolvedChain(t, "AMS-IX", o, 0.04)

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesDirect(t, "day0", ix, days[0], scheme)

	for d := 1; d < len(days); d++ {
		dr, err := collector.NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		next, err := ix.Advance(dr)
		if err != nil {
			t.Fatalf("day %d advance: %v", d, err)
		}
		checkIndexMatchesDirect(t, fmt.Sprintf("day%d", d), next, days[d], scheme)
		ix = next
	}
}

// TestAdvanceEdgeSnapshots drives the chain through degenerate days:
// routeless snapshots and routes with no community sets at all.
func TestAdvanceEdgeSnapshots(t *testing.T) {
	s0, scheme := testSnapshot(t)
	empty := &collector.Snapshot{
		IXP:     s0.IXP,
		Date:    "2021-10-05",
		Members: s0.Members,
	}
	empty.Normalize()
	back := *s0
	back.Date = "2021-10-06"
	back.Normalize()
	series := []*collector.Snapshot{s0, empty, &back}

	enc, err := collector.NewDeltaEncoder(s0)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := collector.NewSnapshotReaderBytes(binBytes(t, s0), "edge.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesDirect(t, "edge-day0", ix, series[0], scheme)
	for d := 1; d < len(series); d++ {
		buf, err := enc.Encode(series[d])
		if err != nil {
			t.Fatalf("day %d encode: %v", d, err)
		}
		dr, err := collector.NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		ix, err = ix.Advance(dr)
		if err != nil {
			t.Fatalf("day %d advance: %v", d, err)
		}
		checkIndexMatchesDirect(t, fmt.Sprintf("edge-day%d", d), ix, series[d], scheme)
	}
}

func TestAdvanceErrors(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 3, Seed: 9, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	// A plain materialized index has no series state to advance.
	dr0, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(days[0], scheme).Advance(dr0); err == nil {
		t.Error("Advance on a non-series index succeeded")
	}

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}

	// Applying day 2's delta to day 0 is a base-digest mismatch.
	dr1, err := collector.NewDeltaReader(deltas[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Advance(dr1); !errors.Is(err, collector.ErrDeltaBaseMismatch) {
		t.Errorf("out-of-order delta: err = %v, want ErrDeltaBaseMismatch", err)
	}

	// After advancing, the superseded day refuses further advances —
	// the chain state has moved on.
	next, err := ix.Advance(dr0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Advance(dr0); err == nil {
		t.Error("Advance on a superseded day succeeded")
	}
	_ = next
}

// TestAdvanceSnapshotChain exercises the report-loader entry point:
// header-only snapshots advancing through attached series indexes.
func TestAdvanceSnapshotChain(t *testing.T) {
	o := ixpgen.TemporalOptions{Days: 4, Seed: 5, Scale: 0.01}
	days, day0, deltas, scheme := evolvedChain(t, "LINX", o, 0.05)

	sr, err := collector.NewSnapshotReaderBytes(day0, "day0.bin")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSeriesFromReader(sr, scheme)
	if err != nil {
		t.Fatal(err)
	}
	cur := ix.Snapshot()
	AttachIndex(cur, ix)
	for d := 1; d < len(days); d++ {
		dr, err := collector.NewDeltaReader(deltas[d-1])
		if err != nil {
			t.Fatal(err)
		}
		cur, err = AdvanceSnapshot(cur, scheme, dr)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
		if cur.Date != days[d].Date {
			t.Fatalf("day %d: date %q, want %q", d, cur.Date, days[d].Date)
		}
		for _, v6 := range []bool{false, true} {
			got := CountSnapshot(cur, v6)
			want := NewIndex(days[d], scheme).Counts(v6)
			if got != want {
				t.Fatalf("day %d v6=%v: counts %+v, want %+v", d, v6, got, want)
			}
		}
	}

	// A snapshot with no attached index cannot ride the chain.
	dr, err := collector.NewDeltaReader(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AdvanceSnapshot(days[0], scheme, dr); err == nil {
		t.Error("AdvanceSnapshot without an attached series index succeeded")
	}
}

// TestAdvanceAfterFailedApply pins the broken-chain contract: op bytes
// carry no checksum and are parsed lazily, so a corrupt op fails
// Advance after earlier ops already moved the chain state. A retry
// with the intact delta would pass the digest and size checks and
// answer from half-applied counts; instead every later Advance on the
// chain must fail.
func TestAdvanceAfterFailedApply(t *testing.T) {
	base, scheme := genSnapshot(t, "AMS-IX")
	if len(base.Routes) < 400 {
		t.Fatalf("generated snapshot too small: %d routes", len(base.Routes))
	}
	next := *base
	next.Date = "2021-10-05"
	next.Routes = nil
	for i, r := range base.Routes {
		if i%2 == 1 && i < 400 {
			continue // 200 removals spread over the table
		}
		next.Routes = append(next.Routes, r)
	}
	enc, err := collector.NewDeltaEncoder(base)
	if err != nil {
		t.Fatal(err)
	}
	good, err := enc.Encode(&next)
	if err != nil {
		t.Fatal(err)
	}
	// The op stream ends the file; a continuation bit on its last byte
	// truncates the final op after every earlier one was applied.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] |= 0x80

	open := func() *Index {
		sr, err := collector.NewSnapshotReaderBytes(binBytes(t, base), "base.bin")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := IndexSeriesFromReader(sr, scheme)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	advance := func(ix *Index, buf []byte) (*Index, error) {
		dr, err := collector.NewDeltaReader(buf)
		if err != nil {
			t.Fatal(err)
		}
		return ix.Advance(dr)
	}

	ix := open()
	if _, err := advance(ix, bad); err == nil || errors.Is(err, collector.ErrDeltaBaseMismatch) {
		t.Fatalf("corrupt delta: err = %v, want an op decode error", err)
	}
	if _, err := advance(ix, good); err == nil {
		t.Fatal("Advance after a failed apply succeeded on half-applied chain state")
	}

	// An untouched chain still takes the intact delta.
	day1, err := advance(open(), good)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesDirect(t, "fresh-chain", day1, &next, scheme)
}

// fuzzBytes reads a fuzz input as a stream of small choices; an
// exhausted stream reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// Value palettes for fuzzDay, chosen to hit every classification
// branch: targeted/all/prepend/blackhole actions against members and
// non-members, informational and unknown values, 32-bit large targets.
var (
	fuzzPeers   = []uint32{100, 200, 6939, 15169, 70000}
	fuzzMembers = []uint32{100, 200, 6939, 15169, 16276, 70000}
)

func fuzzPalettes(scheme *dictionary.Scheme) ([]bgp.Community, []bgp.ExtendedCommunity, []bgp.LargeCommunity) {
	rs := scheme.RSASN
	info, _ := scheme.Info(0)
	comms := []bgp.Community{
		bgp.NewCommunity(0, 15169), bgp.NewCommunity(0, 200), bgp.NewCommunity(0, 16276),
		bgp.NewCommunity(0, rs), bgp.NewCommunity(rs, 100), bgp.NewCommunity(rs, 6939),
		bgp.NewCommunity(rs, rs), bgp.NewCommunity(dictionary.PrependOnceASN, 200),
		bgp.BlackholeWellKnown, info, bgp.NewCommunity(100, 7), bgp.NewCommunity(0, 0),
	}
	exts := []bgp.ExtendedCommunity{
		bgp.NewTwoOctetASExtended(bgp.ExtSubTypeTrafficAction, rs, 0),
		bgp.NewTwoOctetASExtended(bgp.ExtSubTypePrependAction, rs, 1<<16|100),
		bgp.NewTwoOctetASExtended(bgp.ExtSubTypePrependAction, rs, 2<<16|15169),
		bgp.NewTwoOctetASExtended(bgp.ExtSubTypeTrafficAction, 100, 0),
	}
	g := uint32(rs)
	larges := []bgp.LargeCommunity{
		{Global: g, Local1: dictionary.LargeFnDoNotAnnounce, Local2: 70000},
		{Global: g, Local1: dictionary.LargeFnAnnounceOnly, Local2: 100},
		{Global: g, Local1: dictionary.LargeFnDoNotAnnounce, Local2: 0},
		{Global: g, Local1: dictionary.LargeFnInfoBase, Local2: 0},
		{Global: 1, Local1: 2, Local2: 3},
	}
	return comms, exts, larges
}

// pick draws up to max-1 palette values (nil for none).
func pick[T any](b *fuzzBytes, palette []T, max int) []T {
	n := b.next() % max
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = palette[b.next()%len(palette)]
	}
	return out
}

// fuzzDay derives one normalized day from the stream: a member list,
// then — when prev is set — a keep/drop/MED-change/re-tag choice per
// previous route, then a few fresh routes. (prefix, peer) stays unique.
func fuzzDay(b *fuzzBytes, scheme *dictionary.Scheme, prev *collector.Snapshot, date string) *collector.Snapshot {
	comms, exts, larges := fuzzPalettes(scheme)
	s := &collector.Snapshot{IXP: scheme.IXP, Date: date}
	mask := b.next()
	for i, asn := range fuzzMembers {
		if mask&(1<<i) != 0 {
			s.Members = append(s.Members, collector.Member{ASN: asn, IPv4: true, IPv6: i%2 == 0})
		}
	}
	type key struct {
		p    netip.Prefix
		peer uint32
	}
	seen := make(map[key]bool)
	add := func(r bgp.Route) {
		if k := (key{r.Prefix, r.PeerAS()}); !seen[k] {
			seen[k] = true
			s.Routes = append(s.Routes, r)
		}
	}
	if prev != nil {
		for _, r := range prev.Routes {
			switch b.next() % 4 {
			case 0:
				continue
			case 2:
				r.MED = uint32(b.next())
			case 3:
				r.Communities = pick(b, comms, 5)
			}
			add(r)
		}
	}
	for range b.next() % 12 {
		idx, v6 := b.next()%16, b.next()%3 == 0
		r := bgp.Route{ASPath: bgp.ASPath{fuzzPeers[b.next()%len(fuzzPeers)]}}
		if v6 {
			r.Prefix, r.NextHop = netutil.SyntheticV6Prefix(idx), netutil.PeerAddrV6(1)
		} else {
			r.Prefix, r.NextHop = netutil.SyntheticV4Prefix(idx), netutil.PeerAddrV4(1)
		}
		r.Communities = pick(b, comms, 6)
		r.ExtCommunities = pick(b, exts, 3)
		r.LargeCommunities = pick(b, larges, 3)
		add(r)
	}
	s.Normalize()
	return s
}

// FuzzAdvance drives fuzz-derived daily series through the delta
// codec: day 0 is series-indexed off its binary encoding, each later
// day is a DeltaEncoder delta that Advance folds in, and every day's
// index must answer every accessor like the oracle over the day the
// DeltaApplier materializes from the same delta.
func FuzzAdvance(f *testing.F) {
	f.Add([]byte{0, 0x3f, 9, 1, 0, 0, 3, 1, 2, 3, 0, 1, 2, 1, 0, 0, 2, 1, 0, 4, 2, 0})
	f.Add([]byte{1, 0x15, 11, 2, 1, 1, 4, 4, 5, 6, 7, 2, 1, 2, 3, 1, 0x2a, 3, 2, 0, 1, 2, 3, 0x07, 2, 8, 8, 8})
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte(i*131 + 7)
	}
	f.Add(long)

	schemes := []*dictionary.Scheme{dictionary.ProfileByName("DE-CIX"), dictionary.ProfileByName("AMS-IX")}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		scheme := schemes[b.next()%len(schemes)]
		base := fuzzDay(&b, scheme, nil, "2021-10-04")
		enc, err := collector.NewDeltaEncoder(base)
		if err != nil {
			t.Fatal(err)
		}
		app, err := collector.NewDeltaApplier(base)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := collector.NewSnapshotReaderBytes(binBytes(t, base), "day0.bin")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := IndexSeriesFromReader(sr, scheme)
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesDirect(t, "day0", ix, base, scheme)

		prev := base
		for d := 1; d <= 3 && len(b) > 0; d++ {
			next := fuzzDay(&b, scheme, prev, fmt.Sprintf("2021-10-%02d", 4+d))
			buf, err := enc.Encode(next)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := collector.NewDeltaReader(buf)
			if err != nil {
				t.Fatal(err)
			}
			day, err := app.Apply(dr)
			if err != nil {
				t.Fatal(err)
			}
			if ix, err = ix.Advance(dr); err != nil {
				t.Fatalf("day %d advance: %v", d, err)
			}
			checkIndexMatchesDirect(t, fmt.Sprintf("day%d", d), ix, day, scheme)
			prev = next
		}
	})
}
