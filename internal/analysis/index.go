package analysis

import (
	"sort"
	"sync"
	"sync/atomic"

	"ixplight/internal/asdb"
	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// The classified snapshot index.
//
// Every §5 analysis slices the same underlying classification: each
// community on each accepted route, mapped through the IXP dictionary.
// Re-walking the snapshot and re-calling Scheme.Classify per analysis
// (what the reference oracle in oracle_test.go does) would cost
// O(experiments × routes × communities) redundant classification
// work. An Index performs that classification exactly once — one
// classify-and-fold pass (core.go) that classifies every *distinct*
// standard community value once — and aggregates, per address family,
// everything the analyses consume: the Fig. 1/2 mix, the Fig. 3
// action/info split, Fig. 4's usage and per-AS counts, the Table 2 /
// §5.3 per-type tallies, the Fig. 5–7 / §5.5 rankings, the §5.6
// per-route community-count distribution and the Appendix A prefix
// count.

// numActionTypes sizes the per-ActionType arrays (Informational
// through Blackhole).
const numActionTypes = int(dictionary.Blackhole) + 1

// Index is the per-(snapshot, scheme) classified view.
//
// Concurrency contract: an Index is immutable after construction.
// Every method is read-only and safe to call from any number of
// goroutines without external locking; accessors that expose
// aggregate maps return fresh copies. The one obligation on the
// caller is that the underlying Snapshot must not be mutated while
// the Index (or any analysis wrapper that may consult the shared
// index cache) is in use — mutate a copy, or call InvalidateIndex
// first. TestIndexConcurrentUse pins the contract under -race.
type Index struct {
	snap    *collector.Snapshot
	scheme  *dictionary.Scheme
	members map[uint32]bool

	// fam[0] aggregates IPv4, fam[1] IPv6.
	fam [2]familyStats

	// series is the incremental chain state of a series-built index
	// (IndexSeriesFromReader / Advance); nil for every other build.
	// Only the chain's newest index — the state's owner — may Advance.
	series *seriesState
}

// Snapshot returns the snapshot this index classifies. For a
// column-direct index it is header-only: Routes is nil, everything
// else matches the encoded snapshot.
func (ix *Index) Snapshot() *collector.Snapshot { return ix.snap }

// familyStats holds the per-address-family aggregates of one build.
type familyStats struct {
	// commHist is the §5.6 per-route community-count distribution as a
	// histogram (count → routes); both consumers are order-independent.
	commHist      []int
	commInstances int
	prefixes      int // distinct prefixes (Appendix A)

	mix     Mix
	flavour FlavourActions
	usage   Usage

	perASActions map[uint32]int
	perASRoutes  map[uint32]int
	actionComms  map[bgp.Community]int

	typeASes [numActionTypes]int
	occ      [numActionTypes]int

	targets            map[uint32]int
	nonMemberInstances int
	nonMemberComms     map[bgp.Community]int
	culprits           map[uint32]int
}

// --- shared index cache -------------------------------------------------

// The wrappers keep their historical (snapshot, scheme, family)
// signatures, so the cross-analysis reuse the index exists for has to
// happen behind them: a bounded cache keyed by the (snapshot, scheme)
// pointer pair. Entries single-flight their construction so that
// concurrent experiments requesting the same snapshot build one index
// between them.

const indexCacheCap = 32

type indexKey struct {
	snap   *collector.Snapshot
	scheme *dictionary.Scheme
}

type indexEntry struct {
	once sync.Once
	ix   *Index
	// done flips after the build completes, separating cache hits from
	// lookups that coalesce onto an in-flight build.
	done atomic.Bool
}

// build runs the entry's single-flight construction.
func (e *indexEntry) build(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	e.once.Do(func() {
		e.ix = NewIndex(s, scheme)
		e.done.Store(true)
	})
	return e.ix
}

var (
	indexMu      sync.Mutex
	indexEntries = make(map[indexKey]*indexEntry)
	indexOrder   []indexKey
)

// IndexFor returns the Index every scheme-dependent analysis wrapper
// answers from: the index pinned on s (AttachIndex) when its scheme
// matches, else the shared cached one, built on first use. The cache
// holds strong references to at most indexCacheCap snapshots (FIFO
// eviction); the snapshot must not be mutated while indexed analyses
// run against it (see the Index concurrency contract).
func IndexFor(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	if ix := pinnedFor(s, scheme); ix != nil {
		return ix
	}
	t := tel()
	key := indexKey{snap: s, scheme: scheme}
	indexMu.Lock()
	e := indexEntries[key]
	if e == nil {
		evicted := 0
		if len(indexEntries) >= indexCacheCap {
			oldest := indexOrder[0]
			indexOrder = indexOrder[1:]
			delete(indexEntries, oldest)
			evicted = 1
		}
		e = &indexEntry{}
		indexEntries[key] = e
		indexOrder = append(indexOrder, key)
		t.miss()
		t.cache(len(indexEntries), evicted)
	} else if e.done.Load() {
		t.hit()
	} else {
		t.coalesce()
	}
	indexMu.Unlock()
	return e.build(s, scheme)
}

// InvalidateIndex drops any cached index for s, for callers that must
// mutate a snapshot that has already been analysed.
func InvalidateIndex(s *collector.Snapshot) {
	indexMu.Lock()
	defer indexMu.Unlock()
	kept := indexOrder[:0]
	dropped := 0
	for _, key := range indexOrder {
		if key.snap == s {
			delete(indexEntries, key)
			dropped++
			continue
		}
		kept = append(kept, key)
	}
	indexOrder = kept
	tel().cache(len(indexEntries), dropped)
}

// indexForSnapshot finds an already-built index for s under any
// scheme — for the scheme-independent analyses (hygiene, Appendix A
// counts), whose aggregates are identical across schemes. Returns nil
// when nothing is cached; those analyses are cheap enough that
// building an index just for them would be a net loss.
func indexForSnapshot(s *collector.Snapshot) *Index {
	if ix := pinnedFor(s, nil); ix != nil {
		return ix
	}
	indexMu.Lock()
	var e *indexEntry
	var scheme *dictionary.Scheme
	for _, key := range indexOrder {
		if key.snap == s {
			e, scheme = indexEntries[key], key.scheme
			break
		}
	}
	indexMu.Unlock()
	if e == nil {
		return nil
	}
	if t := tel(); t != nil {
		if e.done.Load() {
			t.hit()
		} else {
			t.coalesce()
		}
	}
	return e.build(s, scheme)
}

// --- accessors ----------------------------------------------------------

func (ix *Index) family(v6 bool) *familyStats { return &ix.fam[famOf(v6)] }

// Class returns the scheme's classification of a standard community.
func (ix *Index) Class(c bgp.Community) dictionary.Class { return ix.scheme.Classify(c) }

// Usage returns the Fig. 4a aggregate for one family.
func (ix *Index) Usage(v6 bool) Usage { return ix.family(v6).usage }

// Mix returns the Fig. 1/2 instance mix for one family.
func (ix *Index) Mix(v6 bool) Mix { return ix.family(v6).mix }

// ActionInfoSplit returns the Fig. 3 split for one family.
func (ix *Index) ActionInfoSplit(v6 bool) (action, info int) {
	f := ix.family(v6).flavour
	return f.StandardAction, f.StandardInfo
}

// FlavourActions returns the per-flavour action/info tallies.
func (ix *Index) FlavourActions(v6 bool) FlavourActions { return ix.family(v6).flavour }

// PerASActionCounts returns a copy of each announcing AS's action
// instance count (Fig. 4b/7 raw series).
func (ix *Index) PerASActionCounts(v6 bool) map[uint32]int {
	st := ix.family(v6)
	out := make(map[uint32]int, len(st.perASActions))
	for asn, n := range st.perASActions {
		out[asn] = n
	}
	return out
}

// RouteCommCorrelation returns the Fig. 4c scatter for one family.
func (ix *Index) RouteCommCorrelation(v6 bool) []CorrelationPoint {
	st := ix.family(v6)
	totalComms := 0
	for _, v := range st.perASActions {
		totalComms += v
	}
	out := make([]CorrelationPoint, 0, len(st.perASRoutes))
	for asn, rc := range st.perASRoutes {
		out = append(out, CorrelationPoint{
			ASN:       asn,
			RouteFrac: ratio(rc, st.usage.RoutesTotal),
			CommFrac:  ratio(st.perASActions[asn], totalComms),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ASesPerActionType returns Table 2 for one family.
func (ix *Index) ASesPerActionType(v6 bool) []TypeUsage {
	st := ix.family(v6)
	out := make([]TypeUsage, 0, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		out = append(out, TypeUsage{
			Type:  t,
			ASes:  st.typeASes[t],
			Share: ratio(st.typeASes[t], st.usage.MembersAtRS),
		})
	}
	return out
}

// OccurrencesPerType returns the §5.3 per-type instance counts. Types
// with zero occurrences are absent, like in the oracle twin.
func (ix *Index) OccurrencesPerType(v6 bool) map[dictionary.ActionType]int {
	st := ix.family(v6)
	out := make(map[dictionary.ActionType]int, len(dictionary.ActionTypes))
	for _, t := range dictionary.ActionTypes {
		if st.occ[t] > 0 {
			out[t] = st.occ[t]
		}
	}
	return out
}

// TopActionCommunities returns the Fig. 5 ranking for one family.
func (ix *Index) TopActionCommunities(v6 bool, k int) []CommunityCount {
	return rankCommunities(ix.family(v6).actionComms, ix.Class, k)
}

// NonMemberTargeting returns the §5.5 aggregate for one family.
func (ix *Index) NonMemberTargeting(v6 bool, k int) NonMemberTargeting {
	st := ix.family(v6)
	return NonMemberTargeting{
		Instances: st.nonMemberInstances,
		Total:     st.flavour.StandardAction,
		Top:       rankCommunities(st.nonMemberComms, ix.Class, k),
	}
}

// CulpritRanking returns the Fig. 7 ranking for one family.
func (ix *Index) CulpritRanking(v6 bool, k int) []Culprit {
	return rankCulprits(ix.family(v6).culprits, k)
}

// TopTargets ranks the ASes most targeted by action communities.
func (ix *Index) TopTargets(v6 bool, k int) []TargetedAS {
	st := ix.family(v6)
	out := make([]TargetedAS, 0, len(st.targets))
	for asn, n := range st.targets {
		out = append(out, TargetedAS{ASN: asn, IsMember: ix.members[asn], Count: n})
	}
	sortTargets(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// CategoryBreakdown returns the §5.4 target-category aggregation.
// Aggregating the per-target counts first and mapping each distinct
// ASN through the registry once gives the same totals as the
// per-instance walk of the oracle twin.
func (ix *Index) CategoryBreakdown(reg *asdb.Registry, v6 bool) CategoryBreakdown {
	st := ix.family(v6)
	all := make(map[asdb.Category]int)
	nonMembers := make(map[asdb.Category]int)
	allTotal, nmTotal := 0, 0
	for asn, n := range st.targets {
		cat := reg.CategoryOf(asn)
		all[cat] += n
		allTotal += n
		if !ix.members[asn] {
			nonMembers[cat] += n
			nmTotal += n
		}
	}
	return CategoryBreakdown{
		All:        categoryShares(all, allTotal),
		NonMembers: categoryShares(nonMembers, nmTotal),
	}
}

// countsSlice expands the family's community-count histogram into
// one count per route, ascending — freshly allocated, so safe to sort
// in place.
func (st *familyStats) countsSlice() []int {
	// A corrupt delta chain can drive the route total negative; it must
	// not turn into a panic here.
	counts := make([]int, 0, max(st.usage.RoutesTotal, 0))
	for cc, n := range st.commHist {
		for range n {
			counts = append(counts, cc)
		}
	}
	return counts
}

// HygieneFilterImpact evaluates the §5.6 filter at each threshold.
func (ix *Index) HygieneFilterImpact(v6 bool, thresholds []int) []HygieneImpact {
	st := ix.family(v6)
	return hygieneImpacts(st.countsSlice(), st.commInstances, thresholds)
}

// CommunityCountPercentiles summarises the per-route community count
// distribution at the given percentiles.
func (ix *Index) CommunityCountPercentiles(v6 bool, percentiles []float64) []int {
	return countPercentiles(ix.family(v6).countsSlice(), percentiles)
}

// Counts returns the Appendix A row for one family.
func (ix *Index) Counts(v6 bool) SnapshotCounts {
	st := ix.family(v6)
	return SnapshotCounts{
		Date:        ix.snap.Date,
		Members:     st.usage.MembersAtRS,
		Prefixes:    st.prefixes,
		Routes:      st.usage.RoutesTotal,
		Communities: st.commInstances,
	}
}
