package analysis

import (
	"runtime"
	"sort"
	"sync"

	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// The §5.4 intersection analysis: the paper finds "a considerable
// intersection among the ASes targeted by action communities in the
// top 20 of all IXPs" — fourteen shared avoid-targets between LINX and
// IX.br, six ASes avoided at all four large IXPs. This module computes
// those overlaps for any snapshot set.

// IXPSnapshot pairs a snapshot with its scheme for multi-IXP analyses.
type IXPSnapshot struct {
	Snapshot *collector.Snapshot
	Scheme   *dictionary.Scheme
}

// topTargetSet extracts the ASNs targeted by the top-k action
// communities of one IXP family.
func topTargetSet(s IXPSnapshot, v6 bool, k int) map[uint32]bool {
	set := make(map[uint32]bool)
	for _, cc := range TopActionCommunities(s.Snapshot, s.Scheme, v6, k) {
		if cc.Class.Target == dictionary.TargetPeer {
			set[cc.Class.TargetASN] = true
		}
	}
	return set
}

// PairwiseIntersection is one cell of the §5.4 pairwise comparison.
type PairwiseIntersection struct {
	IXPA, IXPB string
	Shared     []uint32
}

// TargetIntersections computes, over each IXP's top-k targeted ASes,
// the pairwise overlaps and the set shared by every IXP. Results are
// deterministic: shared ASNs are sorted ascending.
func TargetIntersections(ixps []IXPSnapshot, v6 bool, k int) (pairs []PairwiseIntersection, common []uint32) {
	// Each IXP's top-target set comes from its own snapshot index, so
	// the extraction fans out when runtime.GOMAXPROCS(0) allows;
	// results land in per-IXP slots and the intersections below stay
	// deterministic.
	sets := make([]map[uint32]bool, len(ixps))
	if runtime.GOMAXPROCS(0) > 1 && len(ixps) > 1 {
		var wg sync.WaitGroup
		for i, s := range ixps {
			wg.Add(1)
			go func(i int, s IXPSnapshot) {
				defer wg.Done()
				sets[i] = topTargetSet(s, v6, k)
			}(i, s)
		}
		wg.Wait()
	} else {
		for i, s := range ixps {
			sets[i] = topTargetSet(s, v6, k)
		}
	}
	for i := 0; i < len(ixps); i++ {
		for j := i + 1; j < len(ixps); j++ {
			var shared []uint32
			for asn := range sets[i] {
				if sets[j][asn] {
					shared = append(shared, asn)
				}
			}
			sort.Slice(shared, func(a, b int) bool { return shared[a] < shared[b] })
			pairs = append(pairs, PairwiseIntersection{
				IXPA: ixps[i].Snapshot.IXP, IXPB: ixps[j].Snapshot.IXP, Shared: shared,
			})
		}
	}
	if len(sets) > 0 {
		for asn := range sets[0] {
			inAll := true
			for _, set := range sets[1:] {
				if !set[asn] {
					inAll = false
					break
				}
			}
			if inAll {
				common = append(common, asn)
			}
		}
		sort.Slice(common, func(a, b int) bool { return common[a] < common[b] })
	}
	return pairs, common
}
