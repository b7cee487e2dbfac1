package analysis

import (
	"sort"

	"ixplight/internal/asdb"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// The §5.4 category view: "Communities that avoid route redistribution
// to big content and Internet providers ASes are among the most
// popular". This module aggregates action-community targets by the
// operator category of the targeted network, separately for member and
// non-member targets.

// CategoryShare is one row of the breakdown.
type CategoryShare struct {
	Category asdb.Category
	// Instances counts action communities targeting ASes of this
	// category; Share is its fraction of all AS-targeted instances.
	Instances int
	Share     float64
}

// CategoryBreakdown splits targeted action instances by operator
// category. Unregistered ASNs fall under asdb.Unknown (the synthetic
// tail); the named networks dominate the head, which is what §5.4
// reasons about.
type CategoryBreakdown struct {
	All        []CategoryShare
	NonMembers []CategoryShare
}

// ComputeCategoryBreakdown runs the §5.4 category aggregation for one
// snapshot family.
func ComputeCategoryBreakdown(s *collector.Snapshot, scheme *dictionary.Scheme, reg *asdb.Registry, v6 bool) CategoryBreakdown {
	return IndexFor(s, scheme).CategoryBreakdown(reg, v6)
}

func categoryShares(counts map[asdb.Category]int, total int) []CategoryShare {
	out := make([]CategoryShare, 0, len(counts))
	for cat, n := range counts {
		out = append(out, CategoryShare{Category: cat, Instances: n, Share: ratio(n, total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instances != out[j].Instances {
			return out[i].Instances > out[j].Instances
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// ContentShare sums the content-provider and cloud shares of a
// breakdown — the paper's "big content" aggregate.
func ContentShare(shares []CategoryShare) float64 {
	total := 0.0
	for _, s := range shares {
		if s.Category == asdb.ContentProvider || s.Category == asdb.Cloud {
			total += s.Share
		}
	}
	return total
}
