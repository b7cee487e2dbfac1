package analysis

import (
	"sort"

	"ixplight/internal/collector"
)

// The §5.6 operational-implications analysis: DE-CIX mitigates the
// route-server overhead of blanket tagging by filtering routes with
// "too many communities". This what-if quantifies such a filter's
// impact on any snapshot: how many routes (and which share of the
// total community load) a given threshold would drop.

// HygieneImpact is the effect of one threshold value.
type HygieneImpact struct {
	// Threshold is the maximum allowed community count per route.
	Threshold int
	// RoutesDropped is how many routes exceed it.
	RoutesDropped int
	// RoutesTotal is the family's route count.
	RoutesTotal int
	// CommunitiesDropped is the community instances removed with them.
	CommunitiesDropped int
	// CommunitiesTotal is the family's instance count.
	CommunitiesTotal int
}

// DropShare is the fraction of routes lost at this threshold.
func (h HygieneImpact) DropShare() float64 { return ratio(h.RoutesDropped, h.RoutesTotal) }

// LoadShare is the fraction of the community load shed.
func (h HygieneImpact) LoadShare() float64 {
	return ratio(h.CommunitiesDropped, h.CommunitiesTotal)
}

// HygieneFilterImpact evaluates the §5.6 filter at each threshold.
// The per-route counts are scheme-independent, so any pinned or cached
// index for the snapshot serves them; without one the routes are
// walked directly.
func HygieneFilterImpact(s *collector.Snapshot, v6 bool, thresholds []int) []HygieneImpact {
	if ix := indexForSnapshot(s); ix != nil {
		return ix.HygieneFilterImpact(v6, thresholds)
	}
	return hygieneFilterImpactDirect(s, v6, thresholds)
}

// hygieneFilterImpactDirect is HygieneFilterImpact's walk over the
// snapshot's routes.
func hygieneFilterImpactDirect(s *collector.Snapshot, v6 bool, thresholds []int) []HygieneImpact {
	counts := communityCounts(s, v6)
	totalComms := 0
	for _, c := range counts {
		totalComms += c
	}
	return hygieneImpacts(counts, totalComms, thresholds)
}

// hygieneImpacts evaluates each threshold over a per-route community
// count series.
func hygieneImpacts(counts []int, totalComms int, thresholds []int) []HygieneImpact {
	out := make([]HygieneImpact, 0, len(thresholds))
	for _, th := range thresholds {
		h := HygieneImpact{Threshold: th, RoutesTotal: len(counts), CommunitiesTotal: totalComms}
		for _, c := range counts {
			if c > th {
				h.RoutesDropped++
				h.CommunitiesDropped += c
			}
		}
		out = append(out, h)
	}
	return out
}

// CommunityCountPercentiles summarises the per-route community count
// distribution at the given percentiles (0–100) — the evidence for
// picking a §5.6 threshold. Like HygieneFilterImpact it answers from
// any pinned or cached index, else walks the routes.
func CommunityCountPercentiles(s *collector.Snapshot, v6 bool, percentiles []float64) []int {
	if ix := indexForSnapshot(s); ix != nil {
		return ix.CommunityCountPercentiles(v6, percentiles)
	}
	return communityCountPercentilesDirect(s, v6, percentiles)
}

// communityCountPercentilesDirect is CommunityCountPercentiles' walk
// over the snapshot's routes.
func communityCountPercentilesDirect(s *collector.Snapshot, v6 bool, percentiles []float64) []int {
	return countPercentiles(communityCounts(s, v6), percentiles)
}

// countPercentiles sorts counts in place and reads off the requested
// percentiles. Callers handing out shared state must pass a copy.
func countPercentiles(counts []int, percentiles []float64) []int {
	if len(counts) == 0 {
		return make([]int, len(percentiles))
	}
	sort.Ints(counts)
	out := make([]int, len(percentiles))
	for i, p := range percentiles {
		idx := int(p / 100 * float64(len(counts)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(counts) {
			idx = len(counts) - 1
		}
		out[i] = counts[idx]
	}
	return out
}

func communityCounts(s *collector.Snapshot, v6 bool) []int {
	var counts []int
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		counts = append(counts, r.CommunityCount())
	}
	return counts
}
