// RouteBlock: column-level access to a decoded CodecBinary route
// block. The consumer this exists for is the analysis index core
// (analysis.IndexFromReader and IndexSeriesFromReader), which
// registers the interned attribute tables once and then folds the
// columns row by row without ever assembling a bgp.Route — see the
// RouteRef contract below for what each row carries instead.
package collector

import (
	"net/netip"

	"ixplight/internal/bgp"
)

// RouteBlock is a decoded route block: the intern tables plus the raw
// column bytes. Obtain one from SnapshotReader.RouteBlock. Scan may
// be called any number of times (each call copies the column
// cursors); the table accessors return the decoder's own slices —
// callers must treat them as immutable, and when the block was
// decoded into an Arena they are valid only until that arena's next
// decode.
type RouteBlock struct {
	rb     *binaryRoutes
	prefix []byte // front-coding scratch, reused across Scans
	arena  *Arena // non-nil when the block decodes into an arena
}

// NumRoutes returns the row count.
func (b *RouteBlock) NumRoutes() int { return b.rb.n }

// NextHops returns the interned next-hop table.
func (b *RouteBlock) NextHops() []netip.Addr { return b.rb.nexthops }

// ASPaths returns the interned AS-path table.
func (b *RouteBlock) ASPaths() []bgp.ASPath { return b.rb.paths }

// CommunitySets returns the interned standard-community set table.
// A nil entry is a route encoded with a nil (not empty) slice.
func (b *RouteBlock) CommunitySets() [][]bgp.Community { return b.rb.comms }

// ExtCommunitySets returns the interned extended-community set table.
func (b *RouteBlock) ExtCommunitySets() [][]bgp.ExtendedCommunity { return b.rb.exts }

// LargeCommunitySets returns the interned large-community set table.
func (b *RouteBlock) LargeCommunitySets() [][]bgp.LargeCommunity { return b.rb.larges }

// RouteRef is one row of the column walk: intern-table indices plus
// the scalar attributes, no materialized route. PrefixBytes is the
// canonical encoded prefix (length-prefixed netip.Addr.MarshalBinary
// address followed by one bits byte) aliasing a scratch buffer that
// the next row overwrites — copy it to retain it. Two rows carry the
// same prefix iff their PrefixBytes are equal, and V6 matches what
// bgp.Route.IsIPv6 would report for the assembled route.
type RouteRef struct {
	Row         int
	V6          bool
	PrefixBytes []byte

	NextHop          int // index into NextHops
	Path             int // index into ASPaths
	Communities      int // index into CommunitySets
	ExtCommunities   int // index into ExtCommunitySets
	LargeCommunities int // index into LargeCommunitySets

	Origin    bgp.Origin
	MED       uint32
	LocalPref uint32
}

// colIndex reads one bounds-checked intern-table index.
func colIndex(col *breader, n int) (int, error) {
	v, err := col.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(n) {
		return 0, errBinaryTruncated
	}
	return int(v), nil
}

// Scan walks the rows in file order, invoking fn with a reused
// RouteRef; a non-nil error from fn stops the walk and is returned.
// The ref and its PrefixBytes are valid only during the callback.
func (b *RouteBlock) Scan(fn func(*RouteRef) error) error {
	rb := b.rb
	if rb.isNil || rb.n == 0 {
		return nil
	}
	// Local cursor copies make the walk re-runnable: the decoded
	// breaders carry the column bytes with offset zero and are never
	// advanced through the block itself.
	prefixCol := breader{b: rb.prefixCol.b}
	nhCol := breader{b: rb.nhCol.b}
	pathCol := breader{b: rb.pathCol.b}
	originCol := breader{b: rb.originCol.b}
	medCol := breader{b: rb.medCol.b}
	lpCol := breader{b: rb.lpCol.b}
	commCol := breader{b: rb.commCol.b}
	extCol := breader{b: rb.extCol.b}
	largeCol := breader{b: rb.largeCol.b}
	var originRun, medRun, lpRun uint64
	var originVal, medVal, lpVal uint64

	prev := b.prefix[:0]
	var ref RouteRef
	for i := 0; i < rb.n; i++ {
		ref.Row = i

		// Prefix: undo the front coding into the scratch buffer.
		shared, err := prefixCol.uvarint()
		if err != nil {
			return err
		}
		suffixLen, err := prefixCol.uvarint()
		if err != nil {
			return err
		}
		if shared > uint64(len(prev)) {
			return errBinaryTruncated
		}
		suffix, err := prefixCol.bytes(int(suffixLen))
		if err != nil {
			return err
		}
		prev = append(prev[:shared], suffix...)
		ref.PrefixBytes = prev
		// The leading uvarint is the marshalled address byte length: 0
		// invalid, 4 v4, ≥16 v6 — exactly the addresses for which
		// netip.Addr.Is6 (and so bgp.Route.IsIPv6) reports true,
		// 4-in-6 mapped forms included.
		pr := breader{b: prev}
		addrLen, err := pr.uvarint()
		if err != nil {
			return err
		}
		ref.V6 = addrLen >= 16

		if ref.NextHop, err = colIndex(&nhCol, len(rb.nexthops)); err != nil {
			return err
		}
		if ref.Path, err = colIndex(&pathCol, len(rb.paths)); err != nil {
			return err
		}

		origin, err := rle(&originCol, &originRun, &originVal)
		if err != nil {
			return err
		}
		ref.Origin = bgp.Origin(origin)
		med, err := rle(&medCol, &medRun, &medVal)
		if err != nil {
			return err
		}
		ref.MED = uint32(med)
		lp, err := rle(&lpCol, &lpRun, &lpVal)
		if err != nil {
			return err
		}
		ref.LocalPref = uint32(lp)

		if ref.Communities, err = colIndex(&commCol, len(rb.comms)); err != nil {
			return err
		}
		if ref.ExtCommunities, err = colIndex(&extCol, len(rb.exts)); err != nil {
			return err
		}
		if ref.LargeCommunities, err = colIndex(&largeCol, len(rb.larges)); err != nil {
			return err
		}

		if err := fn(&ref); err != nil {
			return err
		}
	}
	b.prefix = prev[:0]
	if b.arena != nil {
		b.arena.prefix = b.prefix
	}
	return nil
}
