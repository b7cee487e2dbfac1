// The classify-and-fold core behind every Index build.
//
// The observation it exploits: the Index's aggregates all factor
// through the attribute sets. Per route, every per-community statistic
// depends only on (family, community set) and every per-AS statistic
// only on (family, announcing neighbor) — so the expensive work
// (Scheme.Classify, map writes) runs once per *distinct value* instead
// of once per route instance:
//
//  1. register: resolve every set element to a dense community id
//     (classifying each distinct value exactly once), reduce each set
//     to the numbers the fold needs (setStat) and map each AS path to
//     a dense neighbor id;
//  2. fold: one step per route row touching only flat arrays —
//     per-set reference counts, per-neighbor tallies and the §5.6
//     community-count histogram — plus the distinct-prefix refcount;
//  3. flush: push the per-set reference counts down to the family's
//     mix/flavour totals and per-id instance counts; the ranking maps
//     are then derived once per distinct action id and per distinct
//     neighbor (core.index).
//
// Three sources feed the same steps. A binary file's route block
// registers its intern tables and folds its columns, so no
// []bgp.Route is materialized (IndexFromReader); a materialized
// snapshot registers each route's own slices as that row's sets — no
// interning needed, the dense ids already dedup the values (NewIndex);
// and Index.Advance registers a delta's table extensions and folds its
// ops with sign -1 for removals.
//
// Full builds take their core from a sync.Pool, so a series run's
// steady state allocates only what the resulting Index owns. A series
// build (IndexSeriesFromReader) keeps a fresh core as the chain state
// Advance patches.
package analysis

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// setStat is the registration-time reduction of one attribute set:
// everything the fold and flush steps need per route referencing it.
type setStat struct {
	n       int32 // element count
	defined int32 // elements the dictionary defines
	actions int32 // action elements
	// Standard sets: action elements targeting a peer outside the
	// members at registration, and the OR of 1<<ActionType over the
	// actions. Large sets: action elements with a 32-bit peer target.
	nonMember int32
	wide      int32
	mask      uint8
}

// tally adds one classified element to an extended or large set's
// reduction.
func (s *setStat) tally(cl dictionary.Class) {
	if !cl.Known {
		return
	}
	s.defined++
	if cl.Action.IsAction() {
		s.actions++
		if cl.Target == dictionary.TargetPeer && cl.TargetASN > 0xFFFF {
			s.wide++
		}
	}
}

// addTo adds n references' worth of the set to one flavour's mix and
// action/info tallies.
func (s *setStat) addTo(n int, defined, unknown, action, info *int) {
	d, a := n*int(s.defined), n*int(s.actions)
	*defined += d
	*unknown += n*int(s.n) - d
	*action += a
	*info += d - a
}

// Per-dense-id flags, derived from the id's Class once.
const (
	idKnown     = 1 << iota // the dictionary defines the value
	idAction                // known action community
	idNonMember             // action targeting a peer that was no member at registration
)

// core is the classify-and-fold state of one build — or, for a series
// index, of a whole delta chain.
type core struct {
	scheme  *dictionary.Scheme
	members map[uint32]bool
	// series marks chain state (IndexSeriesFromReader): its fold also
	// attributes action instances per (neighbor, type) and per
	// (peer-targeting id, neighbor), which Advance needs to keep
	// typeASes and the culprits exact under removals and member churn.
	series bool

	// Open-addressed community → dense id table. idSlots holds id+1
	// (0 = empty); idKeys[h] is meaningful only where idSlots[h] != 0.
	idSlots []uint32
	idKeys  []bgp.Community

	// Dense-id attributes, in first-appearance order.
	idComm    []bgp.Community
	idClass   []dictionary.Class
	idFlags   []uint8
	actionIDs []int32

	// Registered sets. A standard set is also a CSR run of dense ids:
	// setIDs[setOff[s]:setOff[s+1]].
	comms, exts, larges []setStat
	setOff              []int32
	setIDs              []int32

	pathPeer []int32  // path → dense neighbor id
	peerASN  []uint32 // dense neighbor id → ASN
	peerOf   map[uint32]int32

	fam [2]coreFam
}

// coreFam is one address family's live aggregation state.
type coreFam struct {
	// Pending per-set reference counts: fold adds, flush drains.
	comm, ext, large []int

	idRefs                  []int // live instances per dense action id
	peerRoutes, peerActions []int // per dense neighbor
	hist                    []int // routes per community count (§5.6)
	tagged                  int   // routes carrying ≥1 action community
	mix                     Mix
	flavour                 FlavourActions
	prefixes                map[netip.Prefix]int32 // live routes per prefix

	// Full builds: per neighbor, the OR of its action-type masks and
	// its action instances targeting non-members.
	peerMask     []uint8
	peerCulprits []int

	// Series cores: live action instances per (neighbor, type) — the
	// typeASes counts move on their 0↔1 transitions — and per
	// (peer-targeting id, neighbor), keyed id<<32 | neighbor.
	peerTypes [][numActionTypes]int32
	typeASes  [numActionTypes]int
	idPeer    map[uint64]int32
}

// scratch is the pooled per-build state of a full build: the
// collector arena a route block decodes into and the core.
type scratch struct {
	arena collector.Arena
	core  core
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s[:n] zeroed, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// extend zero-extends s to length n (never shrinks).
func extend[T any](s []T, n int) []T {
	m := len(s)
	if n <= m {
		return s
	}
	if n <= cap(s) {
		s = s[:n]
		clear(s[m:])
		return s
	}
	return append(s, make([]T, n-m)...)
}

// reset empties the core for a build under scheme, keeping every
// backing array; rows sizes maps created here.
func (c *core) reset(scheme *dictionary.Scheme, members map[uint32]bool, rows int) {
	c.scheme, c.members = scheme, members
	c.idComm, c.idClass, c.idFlags, c.actionIDs = c.idComm[:0], c.idClass[:0], c.idFlags[:0], c.actionIDs[:0]
	c.comms, c.exts, c.larges = c.comms[:0], c.exts[:0], c.larges[:0]
	c.setOff, c.setIDs = append(c.setOff[:0], 0), c.setIDs[:0]
	c.pathPeer, c.peerASN = c.pathPeer[:0], c.peerASN[:0]
	if c.peerOf == nil {
		c.peerOf = make(map[uint32]int32, 64)
	} else {
		clear(c.peerOf)
	}
	c.rehash(64)
	for f := range c.fam {
		fs := &c.fam[f]
		fs.comm, fs.ext, fs.large = fs.comm[:0], fs.ext[:0], fs.large[:0]
		fs.idRefs, fs.peerRoutes, fs.peerActions = fs.idRefs[:0], fs.peerRoutes[:0], fs.peerActions[:0]
		fs.peerMask, fs.peerCulprits, fs.peerTypes = fs.peerMask[:0], fs.peerCulprits[:0], fs.peerTypes[:0]
		fs.hist = fs.hist[:0]
		fs.tagged, fs.mix, fs.flavour, fs.typeASes = 0, Mix{}, FlavourActions{}, [numActionTypes]int{}
		if fs.prefixes == nil {
			fs.prefixes = make(map[netip.Prefix]int32, rows/2+1)
		} else {
			clear(fs.prefixes)
		}
		if c.series {
			fs.idPeer = make(map[uint64]int32, 64)
		}
	}
}

// rehash resizes the id table to size slots (a power of two) and
// re-inserts every registered id.
func (c *core) rehash(size int) {
	c.idSlots = resize(c.idSlots, size)
	c.idKeys = resize(c.idKeys, size)
	mask := uint32(size - 1)
	for id, v := range c.idComm {
		h := (uint32(v) * 0x9e3779b1) & mask
		for c.idSlots[h] != 0 {
			h = (h + 1) & mask
		}
		c.idSlots[h], c.idKeys[h] = uint32(id)+1, v
	}
}

// classify gives v the next dense id.
func (c *core) classify(v bgp.Community) int32 {
	id := int32(len(c.idComm))
	cl := c.scheme.Classify(v)
	var fl uint8
	if cl.Known {
		fl = idKnown
		if cl.Action.IsAction() {
			fl |= idAction
			c.actionIDs = append(c.actionIDs, id)
			if cl.Target == dictionary.TargetPeer && !c.members[cl.TargetASN] {
				fl |= idNonMember
			}
		}
	}
	c.idComm = append(c.idComm, v)
	c.idClass = append(c.idClass, cl)
	c.idFlags = append(c.idFlags, fl)
	return id
}

// addCommSet registers one standard-community set: each value seen
// for the first time is classified and gets the next dense id, and
// the set becomes a run of ids plus its setStat. The id table doubles
// whenever it would pass half full.
func (c *core) addCommSet(set []bgp.Community) {
	slots, keys := c.idSlots, c.idKeys
	mask := uint32(len(slots) - 1)
	ids := c.setIDs
	s := setStat{n: int32(len(set))}
	for _, v := range set {
		var id int32
		for h := (uint32(v) * 0x9e3779b1) & mask; ; h = (h + 1) & mask {
			k := slots[h]
			if k == 0 {
				id = c.classify(v)
				if 2*len(c.idComm) > len(slots) {
					c.rehash(2 * len(slots))
					slots, keys = c.idSlots, c.idKeys
					mask = uint32(len(slots) - 1)
				} else {
					slots[h], keys[h] = uint32(id)+1, v
				}
				break
			}
			if keys[h] == v {
				id = int32(k) - 1
				break
			}
		}
		ids = append(ids, id)
		if fl := c.idFlags[id]; fl&idKnown != 0 {
			s.defined++
			if fl&idAction != 0 {
				s.actions++
				s.mask |= 1 << c.idClass[id].Action
				if fl&idNonMember != 0 {
					s.nonMember++
				}
			}
		}
	}
	c.setIDs = ids
	c.comms = append(c.comms, s)
	c.setOff = append(c.setOff, int32(len(ids)))
}

func (c *core) addExtSet(set []bgp.ExtendedCommunity) {
	s := setStat{n: int32(len(set))}
	for _, e := range set {
		s.tally(c.scheme.ClassifyExtended(e))
	}
	c.exts = append(c.exts, s)
}

func (c *core) addLargeSet(set []bgp.LargeCommunity) {
	s := setStat{n: int32(len(set))}
	for _, l := range set {
		s.tally(c.scheme.ClassifyLarge(l))
	}
	c.larges = append(c.larges, s)
}

// addPath registers one AS path by its announcing neighbor.
func (c *core) addPath(p bgp.ASPath) {
	a := p.Neighbor()
	pe, ok := c.peerOf[a]
	if !ok {
		pe = int32(len(c.peerASN))
		c.peerASN = append(c.peerASN, a)
		c.peerOf[a] = pe
	}
	c.pathPeer = append(c.pathPeer, pe)
}

// sizeFams zero-extends the per-family arrays to the registered
// tables; call it after each registration batch.
func (c *core) sizeFams() {
	ids, peers := len(c.idComm), len(c.peerASN)
	for f := range c.fam {
		fs := &c.fam[f]
		fs.comm = extend(fs.comm, len(c.comms))
		fs.ext = extend(fs.ext, len(c.exts))
		fs.large = extend(fs.large, len(c.larges))
		fs.idRefs = extend(fs.idRefs, ids)
		fs.peerRoutes = extend(fs.peerRoutes, peers)
		fs.peerActions = extend(fs.peerActions, peers)
		if c.series {
			fs.peerTypes = extend(fs.peerTypes, peers)
		} else {
			fs.peerMask = extend(fs.peerMask, peers)
			fs.peerCulprits = extend(fs.peerCulprits, peers)
		}
	}
}

// famOf maps an address family to its fam slot.
func famOf(v6 bool) int {
	if v6 {
		return 1
	}
	return 0
}

// mapAdd adds n to m[k] with the never-stores-zero invariant: entries
// reaching zero are deleted, so a map's length counts its live keys.
func mapAdd[K comparable, V int | int32](m map[K]V, k K, n V) {
	m[k] += n
	if n < 0 && m[k] == 0 {
		delete(m, k)
	}
}

// fold adds one route row (sign +1) to family f, or takes it back out
// (sign -1). Only flat arrays and the prefix refcount are touched;
// the per-set counts wait for flush.
func (c *core) fold(f int, p netip.Prefix, comm, ext, large, path, sign int) {
	fs := &c.fam[f]
	fs.comm[comm] += sign
	fs.ext[ext] += sign
	fs.large[large] += sign
	cs := &c.comms[comm]
	cc := int(cs.n + c.exts[ext].n + c.larges[large].n)
	if cc >= len(fs.hist) {
		fs.hist = extend(fs.hist, cc+1)
	}
	fs.hist[cc] += sign
	pe := c.pathPeer[path]
	fs.peerRoutes[pe] += sign
	if cs.actions > 0 {
		fs.tagged += sign
		fs.peerActions[pe] += sign * int(cs.actions)
		if c.series {
			c.attribute(fs, comm, pe, sign)
		} else {
			fs.peerMask[pe] |= cs.mask
			fs.peerCulprits[pe] += int(cs.nonMember)
		}
	}
	mapAdd(fs.prefixes, p, int32(sign))
}

// attribute moves a series core's per-(neighbor, type) and
// per-(id, neighbor) action counts by one route's standard set.
func (c *core) attribute(fs *coreFam, comm int, pe int32, sign int) {
	pt := &fs.peerTypes[pe]
	for _, id := range c.setIDs[c.setOff[comm]:c.setOff[comm+1]] {
		if c.idFlags[id]&idAction == 0 {
			continue
		}
		cl := &c.idClass[id]
		switch prev := pt[cl.Action]; {
		case prev == 0 && sign > 0:
			fs.typeASes[cl.Action]++
		case prev == 1 && sign < 0:
			fs.typeASes[cl.Action]--
		}
		pt[cl.Action] += int32(sign)
		if cl.Target == dictionary.TargetPeer {
			mapAdd(fs.idPeer, uint64(id)<<32|uint64(pe), int32(sign))
		}
	}
}

// flush drains the pending counts of one row's three sets into family
// f's totals and per-id counts.
func (c *core) flush(f, comm, ext, large int) {
	fs := &c.fam[f]
	c.flushComm(fs, comm)
	c.flushExt(fs, ext)
	c.flushLarge(fs, large)
}

// flushAll drains every set's pending counts — the end of a full
// build, where the fold left a reference count on each set.
func (c *core) flushAll() {
	for f := range c.fam {
		fs := &c.fam[f]
		for s := range c.comms {
			c.flushComm(fs, s)
		}
		for s := range c.exts {
			c.flushExt(fs, s)
		}
		for s := range c.larges {
			c.flushLarge(fs, s)
		}
	}
}

func (c *core) flushComm(fs *coreFam, s int) {
	n := fs.comm[s]
	if n == 0 {
		return
	}
	fs.comm[s] = 0
	st := &c.comms[s]
	st.addTo(n, &fs.mix.DefinedStandard, &fs.mix.UnknownStandard, &fs.flavour.StandardAction, &fs.flavour.StandardInfo)
	if st.actions == 0 {
		return
	}
	for _, id := range c.setIDs[c.setOff[s]:c.setOff[s+1]] {
		if c.idFlags[id]&idAction != 0 {
			fs.idRefs[id] += n
		}
	}
}

func (c *core) flushExt(fs *coreFam, s int) {
	if n := fs.ext[s]; n != 0 {
		fs.ext[s] = 0
		c.exts[s].addTo(n, &fs.mix.DefinedExtended, &fs.mix.UnknownExtended, &fs.flavour.ExtendedAction, &fs.flavour.ExtendedInfo)
	}
}

func (c *core) flushLarge(fs *coreFam, s int) {
	if n := fs.large[s]; n != 0 {
		fs.large[s] = 0
		st := &c.larges[s]
		st.addTo(n, &fs.mix.DefinedLarge, &fs.mix.UnknownLarge, &fs.flavour.LargeAction, &fs.flavour.LargeInfo)
		fs.flavour.LargeWideTargets += n * int(st.wide)
	}
}

// index derives the Index over head from the core's flushed state:
// scalars and the histogram are copied, the maps are built fresh, so
// the Index owns all its storage and a series core may fold on.
func (c *core) index(head *collector.Snapshot) *Index {
	ix := &Index{snap: head, scheme: c.scheme, members: c.members}
	for _, m := range head.Members {
		if m.IPv4 {
			ix.fam[0].usage.MembersAtRS++
		}
		if m.IPv6 {
			ix.fam[1].usage.MembersAtRS++
		}
	}
	for f := range ix.fam {
		st, fs := &ix.fam[f], &c.fam[f]
		st.mix, st.flavour = fs.mix, fs.flavour
		st.usage.RoutesTagged = fs.tagged
		st.prefixes = len(fs.prefixes)
		hist := fs.hist
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		st.commHist = append([]int(nil), hist...)
		for cc, n := range hist {
			st.usage.RoutesTotal += n
			st.commInstances += cc * n
		}

		// Per-AS fold: one map entry per distinct neighbor.
		st.perASRoutes = make(map[uint32]int, len(c.peerASN))
		st.perASActions = make(map[uint32]int, len(c.peerASN))
		st.culprits = make(map[uint32]int, 32)
		for pe, asn := range c.peerASN {
			if n := fs.peerRoutes[pe]; n > 0 {
				st.perASRoutes[asn] = n
			}
			if n := fs.peerActions[pe]; n > 0 {
				st.perASActions[asn] = n
				st.usage.ActionInstances += n
			}
			if c.series {
				continue
			}
			if n := fs.peerCulprits[pe]; n > 0 {
				st.culprits[asn] = n
			}
			for t := range st.typeASes {
				if fs.peerMask[pe]&(1<<t) != 0 {
					st.typeASes[t]++
				}
			}
		}
		// A peer appears in perASActions iff it tagged ≥1 route.
		st.usage.ASesUsing = len(st.perASActions)
		if c.series {
			// Culprits re-aggregate against this day's member list, so
			// member churn needs no per-route work.
			st.typeASes = fs.typeASes
			for key, n := range fs.idPeer {
				if !c.members[c.idClass[key>>32].TargetASN] {
					st.culprits[c.peerASN[uint32(key)]] += int(n)
				}
			}
		}

		// Ranking maps: one entry per live action id.
		st.actionComms = make(map[bgp.Community]int, 64)
		st.targets = make(map[uint32]int, 64)
		st.nonMemberComms = make(map[bgp.Community]int, 32)
		for _, id := range c.actionIDs {
			n := fs.idRefs[id]
			if n == 0 {
				continue
			}
			cl, v := &c.idClass[id], c.idComm[id]
			st.actionComms[v] = n
			st.occ[cl.Action] += n
			if cl.Target != dictionary.TargetPeer {
				continue
			}
			st.targets[cl.TargetASN] += n
			if !c.members[cl.TargetASN] {
				st.nonMemberComms[v] = n
				st.nonMemberInstances += n
			}
		}
	}
	return ix
}

// NewIndex builds the classified index for one materialized snapshot:
// each route's own attribute slices are its row's sets.
func NewIndex(s *collector.Snapshot, scheme *dictionary.Scheme) *Index {
	defer traceBuild(s, "routes")()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	c := &sc.core
	c.reset(scheme, s.MemberSet(), len(s.Routes))
	for i := range s.Routes {
		r := &s.Routes[i]
		c.addCommSet(r.Communities)
		c.addExtSet(r.ExtCommunities)
		c.addLargeSet(r.LargeCommunities)
		c.addPath(r.ASPath)
	}
	c.sizeFams()
	for i := range s.Routes {
		r := &s.Routes[i]
		c.fold(famOf(r.IsIPv6()), r.Prefix, i, i, i, i, 1)
	}
	c.flushAll()
	return c.index(s)
}

// IndexFromReader builds the classified index for one snapshot
// straight off its columnar route block, with no []bgp.Route
// materialization; every accessor answers like the oracle over the
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
	defer traceBuild(sr.Header(), "columns")()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rb, err := sr.RouteBlock(&sc.arena)
	if err != nil {
		return nil, err
	}
	return sc.core.columns(sr, rb, scheme)
}

// columns runs the build over a binary snapshot's route block. The
// file's table order is canonical first-appearance order — the order
// a DeltaEncoder starting from this snapshot interns — so a series
// core's set ids agree with the chain's by construction.
func (c *core) columns(sr *collector.SnapshotReader, rb *collector.RouteBlock, scheme *dictionary.Scheme) (*Index, error) {
	head := *sr.Header() // private copy; Routes stays nil
	c.reset(scheme, head.MemberSet(), rb.NumRoutes())
	for _, set := range rb.CommunitySets() {
		c.addCommSet(set)
	}
	for _, set := range rb.ExtCommunitySets() {
		c.addExtSet(set)
	}
	for _, set := range rb.LargeCommunitySets() {
		c.addLargeSet(set)
	}
	for _, p := range rb.ASPaths() {
		c.addPath(p)
	}
	c.sizeFams()
	err := rb.Scan(func(ref *collector.RouteRef) error {
		p, err := prefixOf(ref.PrefixBytes)
		if err != nil {
			return err
		}
		c.fold(famOf(ref.V6), p, ref.Communities, ref.ExtCommunities, ref.LargeCommunities, ref.Path, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.flushAll()
	return c.index(&head), nil
}

var errPrefix = errors.New("analysis: malformed route prefix")

// prefixOf decodes a row's canonical prefix encoding — the
// uvarint-length-prefixed netip.Addr.MarshalBinary address plus one
// bits byte (0xFF for -1) that RouteRef.PrefixBytes and
// DeltaOp.PrefixBytes share — into the netip.Prefix a full decode
// yields.
func prefixOf(b []byte) (netip.Prefix, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return netip.Prefix{}, errPrefix
	}
	rest := b[k:]
	if len(rest) == 0 || n != uint64(len(rest)-1) {
		return netip.Prefix{}, errPrefix
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(rest[:n]); err != nil {
		return netip.Prefix{}, errPrefix
	}
	bits := int(rest[n])
	if bits == 0xFF {
		bits = -1
	}
	return netip.PrefixFrom(a, bits), nil
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
// Attach before the snapshot is shared across goroutines. The pin is
// consulted ahead of the shared cache, keyed by the index's scheme
// (scheme-independent lookups match any pin).
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
