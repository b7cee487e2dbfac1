// Incremental index maintenance over snapshot delta chains: instead
// of rebuilding the classified Index from scratch for every day of a
// daily series, day N's index is derived from day N-1's by feeding a
// delta's table extensions and op stream (collector.DeltaReader)
// through the same classify-and-fold core that built the base —
// registering the new sets (classifying only the community values
// first seen in them), folding removed and changed-away routes with
// sign -1 and added and changed-to ones with sign +1. Per-day cost
// scales with churn, not with table size.
//
// The chain state is the base build's own core, kept by
// IndexSeriesFromReader instead of being returned to the pool and
// owned by the chain's newest index. Each day's Index is derived from
// it with fresh maps (core.index), so every earlier day's index stays
// immutable and concurrently usable — exactly what Stability's
// per-day fan-out needs — while only the owner may advance further.
// Equivalence to a rebuild holds by construction: the fold is the
// rebuild's fold, run with the opposite sign for removals.
package analysis

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// seriesState is the chain state shared along one delta chain. It is
// single-writer: only the owner index's Advance mutates it, and the
// per-day indexes never read it after construction.
type seriesState struct {
	core   *core
	owner  *Index
	digest [sha256.Size]byte
	// nextHops counts the chain's next-hop table, the one table the
	// core does not register (no aggregate depends on next hops).
	nextHops int
	// err is the failure that left the state half-applied; every
	// later Advance on the chain reports it.
	err error
}

// IndexSeriesFromReader builds the classified index for a delta
// chain's base snapshot straight off its columnar route block, primed
// for Index.Advance: the build is IndexFromReader's, but its core is
// kept as the chain state the deltas will patch. The snapshot must be
// CodecBinary in random-access mode — the chain digest is the file's
// own sha256.
//
// Like IndexFromReader's, the day-0 index's embedded snapshot is
// header-only (attach with AttachIndex).
func IndexSeriesFromReader(sr *collector.SnapshotReader, scheme *dictionary.Scheme) (*Index, error) {
	digest, ok := sr.Digest()
	if !ok {
		return nil, errors.New("analysis: series index requires a random-access CodecBinary snapshot")
	}
	defer traceBuild(sr.Header(), "columns")()
	// Only the decode arena is pooled; the kept core is the series'
	// own.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rb, err := sr.RouteBlock(&sc.arena)
	if err != nil {
		return nil, err
	}
	c := &core{series: true}
	ix, err := c.columns(sr, rb, scheme)
	if err != nil {
		return nil, err
	}
	ix.series = &seriesState{core: c, owner: ix, digest: digest, nextHops: len(rb.NextHops())}
	return ix, nil
}

// sizes returns the chain table sizes in delta wire order (next-hops,
// AS paths, community sets, extended sets, large sets), which every
// delta's base sizes must match.
func (st *seriesState) sizes() [5]int {
	c := st.core
	return [5]int{st.nextHops, len(c.pathPeer), len(c.comms), len(c.exts), len(c.larges)}
}

// Advance derives day N's index from this one (day N-1) by folding a
// delta's table extensions and op stream into the chain state. Only
// the chain's newest index may advance, and the delta must extend
// exactly this index's snapshot (digest- and table-size-verified);
// earlier days' indexes stay valid and immutable. A mismatch leaves
// the chain untouched; any other error leaves it half-applied, so
// that Advance and every later one on the chain fail — rebuild the
// series from its base.
func (ix *Index) Advance(d *collector.DeltaReader) (*Index, error) {
	st := ix.series
	if st == nil {
		return nil, errors.New("analysis: Advance requires a series index (IndexSeriesFromReader)")
	}
	if st.err != nil {
		return nil, fmt.Errorf("analysis: series chain broken by an earlier failed Advance: %w", st.err)
	}
	if st.owner != ix {
		return nil, errors.New("analysis: Advance on a superseded day; only the chain's newest index may advance")
	}
	if bd := d.BaseDigest(); bd != st.digest {
		return nil, fmt.Errorf("%w: delta for %q does not extend this index's snapshot",
			collector.ErrDeltaBaseMismatch, d.BaseDate())
	}
	if sizes := d.BaseTableSizes(); sizes != st.sizes() {
		return nil, fmt.Errorf("%w: delta expects table sizes %v, chain has %v",
			collector.ErrDeltaBaseMismatch, sizes, st.sizes())
	}
	defer traceBuild(d.Header(), "delta")()

	head := *d.Header() // private copy; Routes stays nil
	c := st.core
	// Membership churn needs no aggregate surgery: the member-sensitive
	// aggregates are derived per day against this list (core.index).
	c.members = head.MemberSet()
	for _, set := range d.NewCommunitySets() {
		c.addCommSet(set)
	}
	for _, set := range d.NewExtCommunitySets() {
		c.addExtSet(set)
	}
	for _, set := range d.NewLargeCommunitySets() {
		c.addLargeSet(set)
	}
	for _, p := range d.NewASPaths() {
		c.addPath(p)
	}
	c.sizeFams()
	st.nextHops += len(d.NewNextHops())

	err := d.Ops(func(op *collector.DeltaOp) error {
		if op.Kind == collector.DeltaCopy {
			return nil
		}
		p, err := prefixOf(op.PrefixBytes)
		if err != nil {
			return err
		}
		f := famOf(op.V6)
		apply := func(t *collector.DeltaTuple, sign int) {
			c.fold(f, p, t.Communities, t.ExtCommunities, t.LargeCommunities, t.Path, sign)
			c.flush(f, t.Communities, t.ExtCommunities, t.LargeCommunities)
		}
		switch op.Kind {
		case collector.DeltaDel:
			apply(&op.Old, -1)
		case collector.DeltaAdd:
			apply(&op.New, 1)
		case collector.DeltaChange:
			// A change keeps the route's merge key (prefix + peer); when
			// the community sets are also unchanged (MED flap, next-hop
			// move) the op is index-invisible.
			o, n := &op.Old, &op.New
			if o.Communities == n.Communities && o.ExtCommunities == n.ExtCommunities &&
				o.LargeCommunities == n.LargeCommunities && c.pathPeer[o.Path] == c.pathPeer[n.Path] {
				break
			}
			apply(o, -1)
			apply(n, 1)
		}
		return nil
	})
	if err != nil {
		st.err = fmt.Errorf("analysis: advancing to %s: %w", head.Date, err)
		return nil, st.err
	}

	st.digest = d.SelfDigest()
	next := c.index(&head)
	next.series = st
	st.owner = next
	return next, nil
}

// AdvanceSnapshot advances a loaded chain snapshot (header-only, with
// its series index attached — the LoadSnapshotDir incremental path)
// by one delta, returning day N as another header-only snapshot with
// the advanced index attached.
func AdvanceSnapshot(base *collector.Snapshot, scheme *dictionary.Scheme, d *collector.DeltaReader) (*collector.Snapshot, error) {
	ix := pinnedFor(base, scheme)
	if ix == nil {
		return nil, errors.New("analysis: snapshot has no attached series index to advance")
	}
	next, err := ix.Advance(d)
	if err != nil {
		return nil, err
	}
	s := next.Snapshot()
	AttachIndex(s, next)
	return s, nil
}
