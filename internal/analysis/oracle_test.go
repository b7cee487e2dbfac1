package analysis

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/ixpgen"
)

// The reference oracle: one direct-classify walk per analysis. Each
// twin re-walks the snapshot's routes and re-calls Scheme.Classify per
// community instance — slow, but simple enough to be obviously right.
// checkIndexMatchesDirect compares every Index accessor against them —
// for indexes built from routes, from binary columns and by
// Index.Advance, including the fuzzers — and TestWrappersMatchOracle
// every public wrapper; the BenchmarkAblation_Classify pair times them
// against the index.

// classifyRouteActions calls fn for every known action community on a
// route, the shared walk under most §5 twins.
func classifyRouteActions(r bgp.Route, scheme *dictionary.Scheme, fn func(bgp.Community, dictionary.Class)) {
	for _, c := range r.Communities {
		cl := scheme.Classify(c)
		if cl.IsAction() {
			fn(c, cl)
		}
	}
}

// ComputeUsageDirect is the direct-classify twin of ComputeUsage.
func ComputeUsageDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) Usage {
	u := Usage{}
	users := make(map[uint32]bool, len(s.Members))
	for _, m := range s.Members {
		if (v6 && m.IPv6) || (!v6 && m.IPv4) {
			u.MembersAtRS++
		}
	}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		u.RoutesTotal++
		n := 0
		for _, c := range r.Communities {
			if scheme.Classify(c).IsAction() {
				n++
			}
		}
		if n > 0 {
			u.RoutesTagged++
			u.ActionInstances += n
			users[r.PeerAS()] = true
		}
	}
	u.ASesUsing = len(users)
	return u
}

// PerASActionCountsDirect is the direct-classify twin of
// PerASActionCounts.
func PerASActionCountsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[uint32]int {
	counts := make(map[uint32]int, len(s.Members))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		n := 0
		for _, c := range r.Communities {
			if scheme.Classify(c).IsAction() {
				n++
			}
		}
		if n > 0 {
			counts[r.PeerAS()] += n
		}
	}
	return counts
}

// RouteCommCorrelationDirect is the direct-classify twin of
// RouteCommCorrelation.
func RouteCommCorrelationDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) []CorrelationPoint {
	routeCounts := make(map[uint32]int, len(s.Members))
	totalRoutes := 0
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		routeCounts[r.PeerAS()]++
		totalRoutes++
	}
	commCounts := PerASActionCountsDirect(s, scheme, v6)
	totalComms := 0
	for _, v := range commCounts {
		totalComms += v
	}
	out := make([]CorrelationPoint, 0, len(routeCounts))
	for asn, rc := range routeCounts {
		out = append(out, CorrelationPoint{
			ASN:       asn,
			RouteFrac: ratio(rc, totalRoutes),
			CommFrac:  ratio(commCounts[asn], totalComms),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ComputeMixDirect is the direct-classify twin of ComputeMix.
func ComputeMixDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) Mix {
	var m Mix
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			if scheme.Classify(c).Known {
				m.DefinedStandard++
			} else {
				m.UnknownStandard++
			}
		}
		for _, e := range r.ExtCommunities {
			if scheme.ClassifyExtended(e).Known {
				m.DefinedExtended++
			} else {
				m.UnknownExtended++
			}
		}
		for _, l := range r.LargeCommunities {
			if scheme.ClassifyLarge(l).Known {
				m.DefinedLarge++
			} else {
				m.UnknownLarge++
			}
		}
	}
	return m
}

// ActionInfoSplitDirect is the direct-classify twin of ActionInfoSplit.
func ActionInfoSplitDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) (action, info int) {
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			cl := scheme.Classify(c)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				action++
			} else {
				info++
			}
		}
	}
	return action, info
}

// ASesPerActionTypeDirect is the direct-classify twin of
// ASesPerActionType.
func ASesPerActionTypeDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) []TypeUsage {
	users := map[dictionary.ActionType]map[uint32]bool{}
	for _, t := range dictionary.ActionTypes {
		users[t] = make(map[uint32]bool)
	}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			users[cl.Action][r.PeerAS()] = true
		})
	}
	members := 0
	for _, m := range s.Members {
		if (v6 && m.IPv6) || (!v6 && m.IPv4) {
			members++
		}
	}
	out := make([]TypeUsage, 0, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		out = append(out, TypeUsage{
			Type:  t,
			ASes:  len(users[t]),
			Share: ratio(len(users[t]), members),
		})
	}
	return out
}

// OccurrencesPerTypeDirect is the direct-classify twin of
// OccurrencesPerType.
func OccurrencesPerTypeDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[dictionary.ActionType]int {
	out := make(map[dictionary.ActionType]int, len(dictionary.ActionTypes))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			out[cl.Action]++
		})
	}
	return out
}

// TopActionCommunitiesDirect is the direct-classify twin of
// TopActionCommunities.
func TopActionCommunitiesDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []CommunityCount {
	counts := make(map[bgp.Community]int, 128)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(c bgp.Community, _ dictionary.Class) {
			counts[c]++
		})
	}
	return rankCommunities(counts, scheme.Classify, k)
}

// ComputeNonMemberTargetingDirect is the direct-classify twin of
// ComputeNonMemberTargeting.
func ComputeNonMemberTargetingDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) NonMemberTargeting {
	members := s.MemberSet()
	counts := make(map[bgp.Community]int, 64)
	res := NonMemberTargeting{}
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(c bgp.Community, cl dictionary.Class) {
			res.Total++
			if cl.Target == dictionary.TargetPeer && !members[cl.TargetASN] {
				res.Instances++
				counts[c]++
			}
		})
	}
	res.Top = rankCommunities(counts, scheme.Classify, k)
	return res
}

// CulpritRankingDirect is the direct-classify twin of CulpritRanking.
func CulpritRankingDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []Culprit {
	members := s.MemberSet()
	counts := make(map[uint32]int, len(s.Members))
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target == dictionary.TargetPeer && !members[cl.TargetASN] {
				counts[r.PeerAS()]++
			}
		})
	}
	return rankCulprits(counts, k)
}

// TopTargetsDirect is the direct-classify twin of TopTargets.
func TopTargetsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []TargetedAS {
	members := s.MemberSet()
	counts := make(map[uint32]int, 128)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target == dictionary.TargetPeer {
				counts[cl.TargetASN]++
			}
		})
	}
	out := make([]TargetedAS, 0, len(counts))
	for asn, n := range counts {
		out = append(out, TargetedAS{ASN: asn, IsMember: members[asn], Count: n})
	}
	sortTargets(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// ComputeFlavourActionsDirect is the direct-classify twin of
// ComputeFlavourActions.
func ComputeFlavourActionsDirect(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) FlavourActions {
	var f FlavourActions
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		for _, c := range r.Communities {
			cl := scheme.Classify(c)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.StandardAction++
			} else {
				f.StandardInfo++
			}
		}
		for _, e := range r.ExtCommunities {
			cl := scheme.ClassifyExtended(e)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.ExtendedAction++
			} else {
				f.ExtendedInfo++
			}
		}
		for _, l := range r.LargeCommunities {
			cl := scheme.ClassifyLarge(l)
			if !cl.Known {
				continue
			}
			if cl.Action.IsAction() {
				f.LargeAction++
				if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
					f.LargeWideTargets++
				}
			} else {
				f.LargeInfo++
			}
		}
	}
	return f
}

// ComputeCategoryBreakdownDirect is the direct-classify twin of
// ComputeCategoryBreakdown.
func ComputeCategoryBreakdownDirect(s *collector.Snapshot, scheme *dictionary.Scheme, reg *asdb.Registry, v6 bool) CategoryBreakdown {
	members := s.MemberSet()
	all := make(map[asdb.Category]int)
	nonMembers := make(map[asdb.Category]int)
	allTotal, nmTotal := 0, 0
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		classifyRouteActions(r, scheme, func(_ bgp.Community, cl dictionary.Class) {
			if cl.Target != dictionary.TargetPeer {
				return
			}
			cat := reg.CategoryOf(cl.TargetASN)
			all[cat]++
			allTotal++
			if !members[cl.TargetASN] {
				nonMembers[cat]++
				nmTotal++
			}
		})
	}
	return CategoryBreakdown{
		All:        categoryShares(all, allTotal),
		NonMembers: categoryShares(nonMembers, nmTotal),
	}
}

// analysisFn is one analysis over a snapshot family, with its result
// boxed for comparison.
type analysisFn func(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) any

// wrapperCase pairs a public wrapper with its oracle. The
// scheme-independent wrappers' oracles are the package's own route
// walks, which are also their production fallback.
type wrapperCase struct {
	name            string
	wrapper, oracle analysisFn
}

func wrapperCases() []wrapperCase {
	reg := asdb.Default()
	thresholds := []int{0, 2, 10}
	percentiles := []float64{0, 50, 90, 100}
	cases := []wrapperCase{
		{"ComputeUsage",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ComputeUsage(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ComputeUsageDirect(s, sc, v6) }},
		{"PerASActionCounts",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return PerASActionCounts(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return PerASActionCountsDirect(s, sc, v6)
			}},
		{"RouteCommCorrelation",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return RouteCommCorrelation(s, sc, v6)
			},
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return RouteCommCorrelationDirect(s, sc, v6)
			}},
		{"ComputeMix",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ComputeMix(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ComputeMixDirect(s, sc, v6) }},
		{"ActionInfoSplit",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				a, i := ActionInfoSplit(s, sc, v6)
				return [2]int{a, i}
			},
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				a, i := ActionInfoSplitDirect(s, sc, v6)
				return [2]int{a, i}
			}},
		{"ActionShare",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ActionShare(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				a, i := ActionInfoSplitDirect(s, sc, v6)
				return ratio(a, a+i)
			}},
		{"ComputeFlavourActions",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return ComputeFlavourActions(s, sc, v6)
			},
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return ComputeFlavourActionsDirect(s, sc, v6)
			}},
		{"ASesPerActionType",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return ASesPerActionType(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return ASesPerActionTypeDirect(s, sc, v6)
			}},
		{"OccurrencesPerType",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return OccurrencesPerType(s, sc, v6) },
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return OccurrencesPerTypeDirect(s, sc, v6)
			}},
		{"ComputeCategoryBreakdown",
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return ComputeCategoryBreakdown(s, sc, reg, v6)
			},
			func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
				return ComputeCategoryBreakdownDirect(s, sc, reg, v6)
			}},
		{"CountSnapshot",
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any { return CountSnapshot(s, v6) },
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any { return countSnapshotDirect(s, v6) }},
		{"HygieneFilterImpact",
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any {
				return HygieneFilterImpact(s, v6, thresholds)
			},
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any {
				return hygieneFilterImpactDirect(s, v6, thresholds)
			}},
		{"CommunityCountPercentiles",
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any {
				return CommunityCountPercentiles(s, v6, percentiles)
			},
			func(s *collector.Snapshot, _ *dictionary.Scheme, v6 bool) any {
				return communityCountPercentilesDirect(s, v6, percentiles)
			}},
	}
	for _, k := range []int{0, 3, 20} {
		cases = append(cases,
			wrapperCase{fmt.Sprintf("TopActionCommunities/k=%d", k),
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
					return TopActionCommunities(s, sc, v6, k)
				},
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
					return TopActionCommunitiesDirect(s, sc, v6, k)
				}},
			wrapperCase{fmt.Sprintf("ComputeNonMemberTargeting/k=%d", k),
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
					return ComputeNonMemberTargeting(s, sc, v6, k)
				},
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
					return ComputeNonMemberTargetingDirect(s, sc, v6, k)
				}},
			wrapperCase{fmt.Sprintf("CulpritRanking/k=%d", k),
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return CulpritRanking(s, sc, v6, k) },
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any {
					return CulpritRankingDirect(s, sc, v6, k)
				}},
			wrapperCase{fmt.Sprintf("TopTargets/k=%d", k),
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return TopTargets(s, sc, v6, k) },
				func(s *collector.Snapshot, sc *dictionary.Scheme, v6 bool) any { return TopTargetsDirect(s, sc, v6, k) }},
		)
	}
	return cases
}

// TestWrappersMatchOracle runs every public wrapper against its oracle
// on three kinds of snapshot: unindexed (the cache is dropped before
// each call, so scheme-dependent wrappers build their index and the
// scheme-independent ones walk the routes), cached (the shared index
// is built first) and pinned (a header-only snapshot carrying a
// column-direct index, as LoadSnapshotDir produces). Unlike
// TestIndexMatchesDirect, which checks Index accessors, this catches a
// wrapper wired to the wrong accessor or a dispatch that skips the
// pin.
func TestWrappersMatchOracle(t *testing.T) {
	type snapCase struct {
		name   string
		s      *collector.Snapshot
		scheme *dictionary.Scheme
	}
	golden, gscheme := testSnapshot(t)
	snaps := []snapCase{{"golden", golden, gscheme}}
	for _, ixp := range []string{"DE-CIX", "AMS-IX"} {
		s, scheme := genSnapshot(t, ixp)
		snaps = append(snaps, snapCase{ixp, s, scheme})
	}
	es, escheme := edgeSnapshot(t)
	empty := &collector.Snapshot{IXP: "DE-CIX", Date: "2021-10-04"}
	empty.Normalize()
	snaps = append(snaps, snapCase{"edge", es, escheme}, snapCase{"empty", empty, dictionary.ProfileByName("DE-CIX")})

	cases := wrapperCases()
	for _, sc := range snaps {
		s, scheme := sc.s, sc.scheme
		t.Cleanup(func() { InvalidateIndex(s) })
		pinned := columnIndex(t, s, scheme)
		head := pinned.Snapshot()
		AttachIndex(head, pinned)
		kinds := []struct {
			name string
			snap *collector.Snapshot
			prep func()
		}{
			{"unindexed", s, func() { InvalidateIndex(s) }},
			{"cached", s, func() { IndexFor(s, scheme) }},
			{"pinned", head, func() {}},
		}
		for _, c := range cases {
			for _, v6 := range []bool{false, true} {
				want := c.oracle(s, scheme, v6)
				for _, k := range kinds {
					k.prep()
					if got := c.wrapper(k.snap, scheme, v6); !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s/%s (v6=%v): wrapper %+v != oracle %+v", sc.name, k.name, c.name, v6, got, want)
					}
				}
			}
		}
	}
}

// directAnalysisBattery runs the single-snapshot §5 battery on the
// oracle twins: every entry point re-walks the snapshot and
// re-classifies each community instance.
func directAnalysisBattery(s *collector.Snapshot, scheme *dictionary.Scheme) int {
	sink := 0
	for _, v6 := range []bool{false, true} {
		u := ComputeUsageDirect(s, scheme, v6)
		sink += u.ActionInstances
		sink += ComputeMixDirect(s, scheme, v6).Total()
		a, i := ActionInfoSplitDirect(s, scheme, v6)
		sink += a + i
		sink += ComputeFlavourActionsDirect(s, scheme, v6).TotalAction()
		sink += len(PerASActionCountsDirect(s, scheme, v6))
		sink += len(RouteCommCorrelationDirect(s, scheme, v6))
		sink += len(ASesPerActionTypeDirect(s, scheme, v6))
		sink += len(OccurrencesPerTypeDirect(s, scheme, v6))
		sink += len(TopActionCommunitiesDirect(s, scheme, v6, 20))
		sink += ComputeNonMemberTargetingDirect(s, scheme, v6, 20).Instances
		sink += len(CulpritRankingDirect(s, scheme, v6, 10))
		sink += len(TopTargetsDirect(s, scheme, v6, 10))
	}
	return sink
}

// indexedAnalysisBattery is the same battery served by one classified
// snapshot index.
func indexedAnalysisBattery(ix *Index) int {
	sink := 0
	for _, v6 := range []bool{false, true} {
		sink += ix.Usage(v6).ActionInstances
		sink += ix.Mix(v6).Total()
		a, i := ix.ActionInfoSplit(v6)
		sink += a + i
		sink += ix.FlavourActions(v6).TotalAction()
		sink += len(ix.PerASActionCounts(v6))
		sink += len(ix.RouteCommCorrelation(v6))
		sink += len(ix.ASesPerActionType(v6))
		sink += len(ix.OccurrencesPerType(v6))
		sink += len(ix.TopActionCommunities(v6, 20))
		sink += ix.NonMemberTargeting(v6, 20).Instances
		sink += len(ix.CulpritRanking(v6, 10))
		sink += len(ix.TopTargets(v6, 10))
	}
	return sink
}

// ablationSnapshot is the DE-CIX snapshot of the paper-experiment
// benchmark lab (seed 42, scale 0.02).
func ablationSnapshot(b *testing.B) (*collector.Snapshot, *dictionary.Scheme) {
	b.Helper()
	p := ixpgen.ProfileByName("DE-CIX")
	w, err := ixpgen.Generate(*p, ixpgen.Options{Seed: 42, Scale: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	return w.Snapshot("2021-10-04"), p.Scheme
}

// BenchmarkAblation_ClassifyDirect vs ...ClassifyIndexed compare the
// oracle against the index over the same DE-CIX snapshot:
// per-analysis re-classification against one classify-and-fold pass
// plus accessor reads. Both run single-threaded so ns/op and
// allocs/op compare like for like.
func BenchmarkAblation_ClassifyDirect(b *testing.B) {
	s, scheme := ablationSnapshot(b)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += directAnalysisBattery(s, scheme)
	}
	if sink == 0 {
		b.Fatal("empty battery")
	}
}

// BenchmarkAblation_ClassifyIndexed builds a fresh index every
// iteration — the cost shown includes the full classification pass,
// not just cache reads.
func BenchmarkAblation_ClassifyIndexed(b *testing.B) {
	s, scheme := ablationSnapshot(b)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		ix := NewIndex(s, scheme)
		sink += indexedAnalysisBattery(ix)
	}
	if sink == 0 {
		b.Fatal("empty battery")
	}
}
