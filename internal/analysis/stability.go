package analysis

import (
	"net/netip"
	"runtime"
	"sync"

	"ixplight/internal/collector"
)

// SnapshotCounts are the four quantities Appendix A tracks per
// snapshot, family and IXP.
type SnapshotCounts struct {
	Date        string
	Members     int
	Prefixes    int
	Routes      int
	Communities int
}

// CountSnapshot extracts one Appendix A row from a snapshot family.
// The counts are scheme-independent, so any pinned or cached index for
// the snapshot serves them; without one the routes are walked
// directly.
func CountSnapshot(s *collector.Snapshot, v6 bool) SnapshotCounts {
	if ix := indexForSnapshot(s); ix != nil {
		return ix.Counts(v6)
	}
	return countSnapshotDirect(s, v6)
}

// countSnapshotDirect is CountSnapshot's walk over the snapshot's
// routes.
func countSnapshotDirect(s *collector.Snapshot, v6 bool) SnapshotCounts {
	c := SnapshotCounts{Date: s.Date}
	if v6 {
		c.Members = s.MembersV6()
	} else {
		c.Members = s.MembersV4()
	}
	prefixes := make(map[netip.Prefix]bool)
	for _, r := range s.Routes {
		if r.IsIPv6() != v6 {
			continue
		}
		c.Routes++
		c.Communities += r.CommunityCount()
		prefixes[r.Prefix] = true
	}
	c.Prefixes = len(prefixes)
	return c
}

// StabilityRow summarises one quantity over a snapshot window: its
// minimum, maximum and percentual min-to-max difference (Tables 3/4).
type StabilityRow struct {
	Min, Max int
	DiffPct  float64
}

func newStabilityRow(vals []int) StabilityRow {
	if len(vals) == 0 {
		return StabilityRow{}
	}
	row := StabilityRow{Min: vals[0], Max: vals[0]}
	for _, v := range vals[1:] {
		if v < row.Min {
			row.Min = v
		}
		if v > row.Max {
			row.Max = v
		}
	}
	if row.Min > 0 {
		row.DiffPct = 100 * float64(row.Max-row.Min) / float64(row.Min)
	}
	return row
}

// StabilityTable is one Table 3/4 line: the variation of members,
// prefixes, routes and communities over a set of snapshots.
type StabilityTable struct {
	Members     StabilityRow
	Prefixes    StabilityRow
	Routes      StabilityRow
	Communities StabilityRow
}

// MaxDiffPct returns the largest variation across the four quantities,
// the number the paper quotes ("the variation ... was under 4%").
func (t StabilityTable) MaxDiffPct() float64 {
	m := t.Members.DiffPct
	for _, v := range []float64{t.Prefixes.DiffPct, t.Routes.DiffPct, t.Communities.DiffPct} {
		if v > m {
			m = v
		}
	}
	return m
}

// Stability computes the Table 3/4 row over a snapshot window. The
// per-snapshot counting fans out over runtime.GOMAXPROCS(0) workers;
// each result lands in its snapshot's slot, so the table is identical
// to the sequential walk.
func Stability(snaps []*collector.Snapshot, v6 bool) StabilityTable {
	rows := make([]SnapshotCounts, len(snaps))
	workers := min(runtime.GOMAXPROCS(0), len(snaps))
	if workers <= 1 {
		for i, s := range snaps {
			rows[i] = CountSnapshot(s, v6)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					rows[i] = CountSnapshot(snaps[i], v6)
				}
			}()
		}
		for i := range snaps {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	members := make([]int, len(rows))
	prefixes := make([]int, len(rows))
	routes := make([]int, len(rows))
	comms := make([]int, len(rows))
	for i, c := range rows {
		members[i] = c.Members
		prefixes[i] = c.Prefixes
		routes[i] = c.Routes
		comms[i] = c.Communities
	}
	return StabilityTable{
		Members:     newStabilityRow(members),
		Prefixes:    newStabilityRow(prefixes),
		Routes:      newStabilityRow(routes),
		Communities: newStabilityRow(comms),
	}
}

// WeeklyRepresentatives picks the first snapshot of each 7-day block —
// the paper's Monday-representative policy (§4).
func WeeklyRepresentatives(snaps []*collector.Snapshot) []*collector.Snapshot {
	var out []*collector.Snapshot
	for i := 0; i < len(snaps); i += 7 {
		out = append(out, snaps[i])
	}
	return out
}
