package analysis

import (
	"sort"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// TypeUsage is one Table 2 cell pair: how many member ASes used an
// action type, and its share of the family's RS members.
type TypeUsage struct {
	Type  dictionary.ActionType
	ASes  int
	Share float64
}

// ASesPerActionType computes Table 2 for one snapshot family: for each
// of the four action groups, the number (and fraction) of RS members
// tagging at least one route with a community of that group.
func ASesPerActionType(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) []TypeUsage {
	return IndexFor(s, scheme).ASesPerActionType(v6)
}

// OccurrencesPerType counts action-community instances per group —
// §5.3's second analysis.
func OccurrencesPerType(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) map[dictionary.ActionType]int {
	return IndexFor(s, scheme).OccurrencesPerType(v6)
}

// CommunityCount is one ranked community in Fig. 5/6.
type CommunityCount struct {
	Community bgp.Community
	Class     dictionary.Class
	Count     int
}

// TopActionCommunities ranks individual action community values by
// occurrence — Fig. 5's top-20 per IXP (ties broken by value for
// determinism).
func TopActionCommunities(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []CommunityCount {
	return IndexFor(s, scheme).TopActionCommunities(v6, k)
}

// rankCommunities sorts a community histogram by count (desc) then
// value (asc) and truncates to k. classify resolves each value's
// Class — the scheme's Classify on the direct path, the index memo on
// the indexed one.
func rankCommunities(counts map[bgp.Community]int, classify func(bgp.Community) dictionary.Class, k int) []CommunityCount {
	out := make([]CommunityCount, 0, len(counts))
	for c, n := range counts {
		out = append(out, CommunityCount{Community: c, Class: classify(c), Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Community < out[j].Community
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// NonMemberTargeting quantifies §5.5 for one family: the action
// instances whose target AS has no session at the RS, the total action
// instances, and the top-k such communities (Fig. 6).
type NonMemberTargeting struct {
	Instances int
	Total     int
	Top       []CommunityCount
}

// Share is the headline §5.5 fraction (31.8%–64.3% in the paper).
func (n NonMemberTargeting) Share() float64 { return ratio(n.Instances, n.Total) }

// ComputeNonMemberTargeting runs the §5.5 analysis. Only communities
// with a specific AS target can be ineffective this way; to-all and
// blackhole actions always have effect.
func ComputeNonMemberTargeting(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) NonMemberTargeting {
	return IndexFor(s, scheme).NonMemberTargeting(v6, k)
}

// Culprit is one Fig. 7 bar: an AS and how many of its action
// communities target non-RS members.
type Culprit struct {
	ASN   uint32
	Count int
}

// CulpritRanking ranks the ASes tagging routes with communities that
// target non-RS members — Fig. 7's top-k.
func CulpritRanking(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []Culprit {
	return IndexFor(s, scheme).CulpritRanking(v6, k)
}

// rankCulprits sorts a per-AS histogram into the Fig. 7 order
// (count desc, ASN asc) and truncates to k.
func rankCulprits(counts map[uint32]int, k int) []Culprit {
	out := make([]Culprit, 0, len(counts))
	for asn, n := range counts {
		out = append(out, Culprit{ASN: asn, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ASN < out[j].ASN
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TargetedAS aggregates instances by target ASN (member or not) — the
// per-AS view behind the §5.4 "who is being avoided" discussion.
type TargetedAS struct {
	ASN      uint32
	IsMember bool
	Count    int
}

// TopTargets ranks the ASes most targeted by action communities.
func TopTargets(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool, k int) []TargetedAS {
	return IndexFor(s, scheme).TopTargets(v6, k)
}

// sortTargets orders targeted ASes by count (desc) then ASN (asc).
func sortTargets(out []TargetedAS) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ASN < out[j].ASN
	})
}
