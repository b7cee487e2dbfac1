// Column-direct index construction: build the classified Index
// straight off a CodecBinary snapshot's columns, with no []bgp.Route
// materialization.
//
// The observation this exploits: the Index's aggregates all factor
// through the intern tables. Per route, every per-community statistic
// depends only on (family, interned-set index) and every per-AS
// statistic only on (family, AS-path neighbor) — so the expensive
// work (Scheme.Classify, map inserts) can run once per *distinct
// value* instead of once per route instance:
//
//  1. pre-pass: resolve every interned set element to a dense
//     community id (classifying each distinct community exactly
//     once), reduce each set to the numbers the hot loop needs
//     (element count, action count, non-member-target count,
//     action-type mask), and map each interned AS path to a dense
//     neighbor id;
//  2. hot loop: one pass over the columns touching only flat arrays —
//     per-set reference counts and per-neighbor tallies, plus the
//     per-route §5.6 community count;
//  3. expansion: push the per-set reference counts down to per-id
//     reference counts (flat adds), then weight each distinct
//     community by its per-family count to recover the exact
//     per-instance aggregates NewIndex computes. Map writes happen
//     once per distinct community and once per distinct neighbor,
//     not once per element instance — on route-server data the
//     element instances outnumber the distinct values by orders of
//     magnitude.
//
// All scratch (decode slabs via collector.Arena, the id table, the
// flat arrays) comes from a sync.Pool, so a series run's steady state
// allocates only what the resulting Index itself owns.
package analysis

import (
	"bytes"
	"sync"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// commSetStat is the pre-pass reduction of one interned
// standard-community set — everything the hot loop needs per route.
type commSetStat struct {
	n         int32 // element count
	actions   int32 // action-community instances in the set
	nonMember int32 // action instances targeting a non-member AS
	mask      uint8 // OR of 1<<ActionType over the set's actions
}

// Per-distinct-community flags derived from its Class once.
const (
	idFlagAction    = 1 << 0 // known action community
	idFlagNonMember = 1 << 1 // action targeting a non-member peer
)

// famScratch is one family's flat aggregation arrays.
type famScratch struct {
	comm, ext, large []int // per-interned-set reference counts

	// Per-dense-neighbor tallies, filled by the hot loop.
	peerRoutes, peerActions, peerCulprits []int
	peerMask                              []uint8

	idRefs []int32 // per-dense-community instance counts
}

// columnScratch is the pooled per-build scratch: the collector arena
// the route block decodes into plus the id tables and flat arrays.
type columnScratch struct {
	arena collector.Arena

	stats    []commSetStat
	extLen   []int32
	largeLen []int32

	// Open-addressed community → dense id table. idSlots holds id+1
	// (0 = empty) and is the only part cleared between builds;
	// idKeys[i] is only meaningful where idSlots[i] != 0.
	idSlots []uint32
	idKeys  []bgp.Community

	// Dense-id attributes, appended in discovery order.
	idComm  []bgp.Community
	idClass []dictionary.Class
	idMask  []uint8
	idFlags []uint8

	setIDs []int32 // concatenated per-set dense ids
	setOff []int32 // len(sets)+1 offsets into setIDs

	pidx    []int32  // interned path → dense neighbor id
	peerASN []uint32 // dense neighbor id → ASN
	peerOf  map[uint32]int32

	fam [2]famScratch
}

var columnPool = sync.Pool{New: func() any { return new(columnScratch) }}

// grown returns (*store)[:n] zeroed, growing the backing array as
// needed — the scratch-array analogue of the decoder's arena slabs.
func grown[T any](store *[]T, n int) []T {
	if cap(*store) < n {
		*store = make([]T, n)
		return *store
	}
	s := (*store)[:n]
	clear(s)
	return s
}

// grownDirty is grown without the clear, for arrays whose every cell
// is written before it is read.
func grownDirty[T any](store *[]T, n int) []T {
	if cap(*store) < n {
		*store = make([]T, n)
	}
	return (*store)[:n]
}

// IndexFromReader builds the classified index for one snapshot
// straight off its columnar route block, producing an Index whose
// every accessor answers identically to NewIndex over the
// materialized snapshot (the equivalence tests pin this per
// accessor). Only CodecBinary snapshots are columnar; other codecs
// transparently fall back to Snapshot() + NewIndex.
//
// The resulting Index owns all its storage: it stays valid after the
// reader is closed and after the pooled scratch is reused. Its
// embedded snapshot is header-only (Routes nil) — attach it with
// AttachIndex so the analysis wrappers answer from the index instead
// of walking the absent routes.
func IndexFromReader(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	if sr.Codec() != collector.CodecBinary {
		s, err := sr.Snapshot()
		if err != nil {
			return nil, err
		}
		return NewIndex(s, scheme), nil
	}
	t := tel()
	if t != nil {
		sp := t.span("analysis.index_build")
		sp.SetAttr("ixp", sr.Header().IXP)
		sp.SetAttr("date", sr.Header().Date)
		sp.SetAttr("source", "columns")
		t0 := time.Now()
		defer func() {
			t.built(time.Since(t0))
			sp.End()
		}()
	}
	t.builtFrom("columns")

	sc := columnPool.Get().(*columnScratch)
	defer columnPool.Put(sc)

	rb, err := sr.RouteBlock(&sc.arena)
	if err != nil {
		return nil, err
	}

	head := *sr.Header() // private copy; Routes stays nil
	ix := &Index{
		snap:        &head,
		scheme:      scheme,
		members:     head.MemberSet(),
		colPrefixes: true,
	}
	for _, m := range head.Members {
		if m.IPv4 {
			ix.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			ix.fam[1].usage.MembersAtRS++
		}
	}

	comms := rb.CommunitySets()
	exts := rb.ExtCommunitySets()
	larges := rb.LargeCommunitySets()
	paths := rb.ASPaths()

	// Pre-pass: resolve every set element to a dense id, classifying
	// each distinct community value exactly once. Sized at twice the
	// element count, the table's load factor never crosses ½, so it
	// never needs to grow mid-build.
	elems := 0
	for _, set := range comms {
		elems += len(set)
	}
	tabSize := 64
	for tabSize < 2*elems {
		tabSize <<= 1
	}
	tabMask := uint32(tabSize - 1)
	idSlots := grown(&sc.idSlots, tabSize)
	idKeys := grownDirty(&sc.idKeys, tabSize)
	idComm := sc.idComm[:0]
	idClass := sc.idClass[:0]
	idMask := sc.idMask[:0]
	idFlags := sc.idFlags[:0]
	setIDs := grownDirty(&sc.setIDs, elems)[:0]
	setOff := grownDirty(&sc.setOff, len(comms)+1)

	stats := grown(&sc.stats, len(comms))
	for ci, set := range comms {
		setOff[ci] = int32(len(setIDs))
		st := &stats[ci]
		st.n = int32(len(set))
		for _, c := range set {
			var id int32
			for h := (uint32(c) * 0x9e3779b1) & tabMask; ; h = (h + 1) & tabMask {
				if s := idSlots[h]; s != 0 {
					if idKeys[h] == c {
						id = int32(s) - 1
						break
					}
					continue
				}
				cl := scheme.Classify(c)
				id = int32(len(idComm))
				idComm = append(idComm, c)
				idClass = append(idClass, cl)
				var mask, flags uint8
				if cl.Known && cl.Action.IsAction() {
					mask = 1 << cl.Action
					flags = idFlagAction
					if cl.Target == dictionary.TargetPeer && !ix.members[cl.TargetASN] {
						flags |= idFlagNonMember
					}
				}
				idMask = append(idMask, mask)
				idFlags = append(idFlags, flags)
				idSlots[h], idKeys[h] = uint32(id)+1, c
				break
			}
			setIDs = append(setIDs, id)
			if fl := idFlags[id]; fl&idFlagAction != 0 {
				st.actions++
				st.mask |= idMask[id]
				if fl&idFlagNonMember != 0 {
					st.nonMember++
				}
			}
		}
	}
	setOff[len(comms)] = int32(len(setIDs))
	sc.idComm, sc.idClass, sc.idMask, sc.idFlags = idComm, idClass, idMask, idFlags

	// The index memo must end up with the same coverage NewIndex's
	// does — every distinct community in the snapshot — so Class()
	// and the accessors answer identically. The distinct count is
	// known now; the ×1.5 keeps the load factor under the memo's ⅔
	// grow threshold so the fill below never rehashes.
	ix.classes = newClassMemo(3 * len(idComm) / 2)
	for id, c := range idComm {
		ix.classes.put(c, idClass[id])
	}

	ix.extClasses = make(map[bgp.ExtendedCommunity]dictionary.Class, 32)
	extLen := grown(&sc.extLen, len(exts))
	for ei, set := range exts {
		extLen[ei] = int32(len(set))
		for _, e := range set {
			if _, ok := ix.extClasses[e]; !ok {
				ix.extClasses[e] = scheme.ClassifyExtended(e)
			}
		}
	}
	ix.largeClasses = make(map[bgp.LargeCommunity]dictionary.Class, 32)
	largeLen := grown(&sc.largeLen, len(larges))
	for li, set := range larges {
		largeLen[li] = int32(len(set))
		for _, l := range set {
			if _, ok := ix.largeClasses[l]; !ok {
				ix.largeClasses[l] = scheme.ClassifyLarge(l)
			}
		}
	}

	// Dense neighbor ids: distinct AS paths collapse onto few peers
	// (the members announcing them), so per-AS tallies can live in
	// flat arrays during the hot loop.
	pidx := grownDirty(&sc.pidx, len(paths))
	peerASN := sc.peerASN[:0]
	if sc.peerOf == nil {
		sc.peerOf = make(map[uint32]int32, 64)
	} else {
		clear(sc.peerOf)
	}
	for pi, p := range paths {
		a := p.Neighbor()
		id, ok := sc.peerOf[a]
		if !ok {
			id = int32(len(peerASN))
			peerASN = append(peerASN, a)
			sc.peerOf[a] = id
		}
		pidx[pi] = id
	}
	sc.peerASN = peerASN

	var fams [2]*famScratch
	for f := range sc.fam {
		fs := &sc.fam[f]
		fs.comm = grown(&fs.comm, len(comms))
		fs.ext = grown(&fs.ext, len(exts))
		fs.large = grown(&fs.large, len(larges))
		fs.peerRoutes = grown(&fs.peerRoutes, len(peerASN))
		fs.peerActions = grown(&fs.peerActions, len(peerASN))
		fs.peerCulprits = grown(&fs.peerCulprits, len(peerASN))
		fs.peerMask = grown(&fs.peerMask, len(peerASN))
		fams[f] = fs
		ix.fam[f].commCounts = make([]int, 0, rb.NumRoutes())
	}

	// Hot loop: flat array arithmetic only — no map, no Classify, no
	// allocation. The prefix encodings are adjacent-deduplicated per
	// family into an index-owned slab for the lazy Counts() prefix
	// count (snapshots are Normalize-sorted, so adjacency catches
	// nearly all duplicates; the count itself dedups globally).
	lastOff := [2]int{-1, -1}
	err = rb.Scan(func(ref *collector.RouteRef) error {
		f := 0
		if ref.V6 {
			f = 1
		}
		fs, st := fams[f], &ix.fam[f]

		fs.comm[ref.Communities]++
		fs.ext[ref.ExtCommunities]++
		fs.large[ref.LargeCommunities]++

		cc := int(stats[ref.Communities].n) + int(extLen[ref.ExtCommunities]) + int(largeLen[ref.LargeCommunities])
		st.commCounts = append(st.commCounts, cc)
		st.commInstances += cc
		st.usage.RoutesTotal++

		pe := pidx[ref.Path]
		fs.peerRoutes[pe]++
		cs := &stats[ref.Communities]
		if cs.actions > 0 {
			st.usage.RoutesTagged++
			st.usage.ActionInstances += int(cs.actions)
			fs.peerActions[pe] += int(cs.actions)
		}
		fs.peerMask[pe] |= cs.mask
		if cs.nonMember > 0 {
			st.nonMemberInstances += int(cs.nonMember)
			fs.peerCulprits[pe] += int(cs.nonMember)
		}

		if lastOff[f] < 0 || !bytes.Equal(ix.prefixEnc[f][lastOff[f]:], ref.PrefixBytes) {
			lastOff[f] = len(ix.prefixEnc[f])
			ix.prefixEnc[f] = append(ix.prefixEnc[f], ref.PrefixBytes...)
			ix.prefixEnds[f] = append(ix.prefixEnds[f], int32(len(ix.prefixEnc[f])))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Expansion: push the per-set reference counts down to per-id
	// instance counts (flat adds over the id slab) …
	ref0 := grown(&sc.fam[0].idRefs, len(idComm))
	ref1 := grown(&sc.fam[1].idRefs, len(idComm))
	for ci := range comms {
		n0, n1 := int32(fams[0].comm[ci]), int32(fams[1].comm[ci])
		ids := setIDs[setOff[ci]:setOff[ci+1]]
		switch {
		case n0 == 0 && n1 == 0:
		case n1 == 0:
			for _, id := range ids {
				ref0[id] += n0
			}
		case n0 == 0:
			for _, id := range ids {
				ref1[id] += n1
			}
		default:
			for _, id := range ids {
				ref0[id] += n0
				ref1[id] += n1
			}
		}
	}
	// … then weight each distinct community by its per-family count.
	// This reproduces, aggregate by aggregate, what addRoute does per
	// instance, with map writes only at distinct-community frequency.
	for f := range ix.fam {
		st := &ix.fam[f]
		st.perASActions = make(map[uint32]int, len(peerASN))
		st.perASRoutes = make(map[uint32]int, len(peerASN))
		st.actionComms = make(map[bgp.Community]int, 64)
		st.targets = make(map[uint32]int, 64)
		st.nonMemberComms = make(map[bgp.Community]int, 32)
		st.culprits = make(map[uint32]int, len(peerASN))
	}
	var refs [2]int
	for id, c := range idComm {
		refs[0], refs[1] = int(ref0[id]), int(ref1[id])
		if refs[0]+refs[1] == 0 {
			continue
		}
		cl := idClass[id]
		for f, n := range refs {
			if n == 0 {
				continue
			}
			st := &ix.fam[f]
			if !cl.Known {
				st.mix.UnknownStandard += n
				continue
			}
			st.mix.DefinedStandard += n
			if !cl.Action.IsAction() {
				st.flavour.StandardInfo += n
				continue
			}
			st.flavour.StandardAction += n
			st.actionComms[c] += n
			st.occ[cl.Action] += n
			if cl.Target == dictionary.TargetPeer {
				st.targets[cl.TargetASN] += n
				if !ix.members[cl.TargetASN] {
					st.nonMemberComms[c] += n
				}
			}
		}
	}
	for ei, set := range exts {
		refs[0], refs[1] = fams[0].ext[ei], fams[1].ext[ei]
		if refs[0]+refs[1] == 0 {
			continue
		}
		for _, e := range set {
			cl := ix.extClasses[e]
			for f, n := range refs {
				if n == 0 {
					continue
				}
				st := &ix.fam[f]
				if !cl.Known {
					st.mix.UnknownExtended += n
					continue
				}
				st.mix.DefinedExtended += n
				if cl.Action.IsAction() {
					st.flavour.ExtendedAction += n
				} else {
					st.flavour.ExtendedInfo += n
				}
			}
		}
	}
	for li, set := range larges {
		refs[0], refs[1] = fams[0].large[li], fams[1].large[li]
		if refs[0]+refs[1] == 0 {
			continue
		}
		for _, l := range set {
			cl := ix.largeClasses[l]
			for f, n := range refs {
				if n == 0 {
					continue
				}
				st := &ix.fam[f]
				if !cl.Known {
					st.mix.UnknownLarge += n
					continue
				}
				st.mix.DefinedLarge += n
				if cl.Action.IsAction() {
					st.flavour.LargeAction += n
					if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
						st.flavour.LargeWideTargets += n
					}
				} else {
					st.flavour.LargeInfo += n
				}
			}
		}
	}

	// Per-AS fold: the hot loop already collapsed paths onto dense
	// neighbors, so each family writes at most one map entry per
	// distinct peer — the same entries addRoute's per-route map
	// writes converge to.
	for f := range ix.fam {
		fs, st := fams[f], &ix.fam[f]
		for pe, asn := range peerASN {
			if n := fs.peerRoutes[pe]; n > 0 {
				st.perASRoutes[asn] += n
			}
			if n := fs.peerActions[pe]; n > 0 {
				st.perASActions[asn] += n
			}
			if n := fs.peerCulprits[pe]; n > 0 {
				st.culprits[asn] += n
			}
			if m := fs.peerMask[pe]; m != 0 {
				for t := 0; t < numActionTypes; t++ {
					if m&(1<<t) != 0 {
						st.typeASes[t]++
					}
				}
			}
		}
		st.usage.ASesUsing = len(st.perASActions)
	}
	return ix, nil
}

// pinnedIndex is the Snapshot aux attachment carrying a pre-built
// index for a (possibly route-less) snapshot.
type pinnedIndex struct {
	scheme *dictionary.Scheme
	ix     *Index
}

// AttachIndex pins a pre-built index on its snapshot, making every
// analysis wrapper answer from it — required for a header-only
// snapshot, which has no routes to build an index from or to walk.
// Attach before the snapshot is shared across goroutines. The pin is consulted ahead of the shared cache, keyed
// by the index's scheme (scheme-independent lookups match any pin).
func AttachIndex(s *collector.Snapshot, ix *Index) {
	s.SetAux(&pinnedIndex{scheme: ix.scheme, ix: ix})
}

// pinnedFor returns the index pinned on s when its scheme matches
// (nil scheme matches any pin), else nil.
func pinnedFor(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	if p, ok := s.Aux().(*pinnedIndex); ok && (scheme == nil || p.scheme == scheme) {
		return p.ix
	}
	return nil
}
