package collector

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"

	"ixplight/internal/bgp"
)

// ErrNotColumnar reports a RouteBlock request against a snapshot that
// is not in the columnar binary codec; callers fall back to
// Snapshot() / ForEachRoute.
var ErrNotColumnar = errors.New("collector: snapshot is not in the columnar binary codec")

// errUndetectable reports snapshot content that is none of the
// codecs: no known extension, no binary magic, not JSON, not gzipped
// JSON.
var errUndetectable = errors.New("collector: cannot detect snapshot codec")

// SnapshotReader reads one snapshot held as a single encoded byte
// slice: Header() answers the IXP/date/member-list/partial metadata
// without decoding routes, and ForEachRoute visits routes one at a
// time without materialising a []bgp.Route. For CodecBinary only the
// header section is parsed at open time and every route walk decodes
// the route block in place; the JSON codecs cannot be partially
// decoded, so their open decodes the whole snapshot and serves the
// same interface over it.
type SnapshotReader struct {
	codec  Codec
	closer io.Closer

	// data is the whole encoded CodecBinary snapshot — possibly an
	// mmap'd file — and block the route block within it. A JSON
	// reader keeps only its decode.
	data   []byte
	header *Snapshot
	block  []byte

	// full is the eager decode of a JSON snapshot, and the cache once
	// Snapshot() has materialised a binary one.
	full *Snapshot
}

// OpenSnapshot reads a snapshot file into memory and opens a reader
// over it, deducing the codec from the file extension with a
// magic-byte and content sniff for unknown extensions (so renamed or
// extensionless files still load). Close the reader when done.
func OpenSnapshot(path string) (*SnapshotReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewSnapshotReaderBytes(data, path)
}

// OpenSnapshotAt is OpenSnapshot over the file's mapped bytes: on
// linux the file is mmap'd read-only (a multi-GB dataset directory
// never fully resides in heap — pages fault in as the columns are
// walked and drop out under memory pressure), with a whole-file read
// elsewhere. Close unmaps the file: the RouteBlock, its intern tables
// and any arena-free decode results must not be used after Close.
func OpenSnapshotAt(path string) (*SnapshotReader, error) {
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewSnapshotReaderBytes(data, path)
	if err != nil {
		closer.Close()
		return nil, err
	}
	sr.closer = closer
	return sr, nil
}

// NewSnapshotReaderBytes opens a reader over an in-memory encoded
// snapshot. pathHint may be empty; when it carries a known snapshot
// extension the codec is taken from it, otherwise the content is
// sniffed. For CodecBinary the bytes are decoded in place — the
// header is parsed immediately and the route block aliases data with
// no copy — so data must stay immutable and alive for the reader's
// lifetime. The JSON codecs decode eagerly.
func NewSnapshotReaderBytes(data []byte, pathHint string) (*SnapshotReader, error) {
	codec, err := detectCodec(data, pathHint)
	if err != nil {
		return nil, err
	}
	sr := &SnapshotReader{codec: codec}
	if codec != CodecBinary {
		tel := codecTel()
		t0 := tel.now()
		full, err := decode(data, codec)
		if err != nil {
			return nil, err
		}
		tel.decoded(codec, t0, int64(len(data)), len(full.Routes))
		sr.full = full
		sr.header = headerOnly(full)
		return sr, nil
	}
	if sr.header, sr.block, err = decodeBinaryHeader(data); err != nil {
		return nil, err
	}
	sr.data = data
	return sr, nil
}

// Codec reports the codec the file was detected as.
func (sr *SnapshotReader) Codec() Codec { return sr.codec }

// Header returns the snapshot metadata — IXP, date, members, filtered
// count, partial flag and member errors — with Routes left nil. The
// returned value is shared; callers must not mutate it.
func (sr *SnapshotReader) Header() *Snapshot { return sr.header }

// RouteBlock exposes the columnar route block — intern tables plus a
// re-scannable row cursor — without assembling a single bgp.Route.
// Only CodecBinary snapshots are columnar; other codecs return
// ErrNotColumnar and the caller falls back to Snapshot(). Scan copies
// the column cursors, so it can run any number of times.
//
// With a non-nil arena the tables are decoded into its reusable
// slabs, and the block plus everything reachable from it dies at the
// arena's next decode. With a nil arena the block owns fresh storage
// but still aliases the reader's bytes — for a reader from
// OpenSnapshotAt that is the mmap'd file, so the block also dies at
// sr.Close.
func (sr *SnapshotReader) RouteBlock(a *Arena) (*RouteBlock, error) {
	if sr.codec != CodecBinary {
		return nil, ErrNotColumnar
	}
	rb, err := decodeBinaryRoutes(sr.block, a)
	if err != nil {
		return nil, err
	}
	b := &RouteBlock{rb: rb}
	if a != nil {
		b.prefix = a.prefix[:0]
		b.arena = a
	}
	return b, nil
}

// ForEachRoute decodes routes in file order, calling fn for each; a
// non-nil error from fn stops the walk and is returned. On a binary
// snapshot the routes are decoded one at a time straight off the
// columns — no []bgp.Route is ever materialised — so a dataset-wide
// scan holds one route plus the intern tables, not the whole
// snapshot. Every call walks afresh. Decoded routes alias the
// snapshot's interned tables; treat them as immutable (Clone before
// mutating), the contract every snapshot consumer already follows.
func (sr *SnapshotReader) ForEachRoute(fn func(bgp.Route) error) error {
	if sr.full != nil {
		for i := range sr.full.Routes {
			if err := fn(sr.full.Routes[i]); err != nil {
				return err
			}
		}
		return nil
	}
	tel := codecTel()
	t0 := tel.now()
	rb, err := decodeBinaryRoutes(sr.block, nil)
	if err != nil {
		return err
	}
	for i := 0; i < rb.n; i++ {
		r, err := rb.next()
		if err != nil {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	tel.decoded(CodecBinary, t0, int64(len(sr.data)), rb.n)
	return nil
}

// Snapshot materialises the complete snapshot (header + routes). The
// result is cached: later calls return the same value.
func (sr *SnapshotReader) Snapshot() (*Snapshot, error) {
	if sr.full != nil {
		return sr.full, nil
	}
	tel := codecTel()
	t0 := tel.now()
	routes, err := decodeRoutes(sr.block)
	if err != nil {
		return nil, err
	}
	s := *sr.header
	s.Routes = routes
	sr.full = &s
	tel.decoded(CodecBinary, t0, int64(len(sr.data)), len(routes))
	return sr.full, nil
}

// Close releases the mapping of a reader from OpenSnapshotAt; for
// other readers it is a no-op.
func (sr *SnapshotReader) Close() error {
	if sr.closer == nil {
		return nil
	}
	return sr.closer.Close()
}

// headerOnly shallow-copies a snapshot with its Routes detached.
func headerOnly(s *Snapshot) *Snapshot {
	h := *s
	h.Routes = nil
	return &h
}

// detectCodec deduces a snapshot's codec: a known extension wins
// (SaveSnapshot always writes one), then the CodecBinary magic, then
// a content sniff for JSON and gzipped JSON. Anything else is
// errUndetectable.
func detectCodec(data []byte, path string) (Codec, error) {
	switch {
	case hasSuffix(path, ".json.gz"):
		return CodecJSONGzip, nil
	case hasSuffix(path, ".json"):
		return CodecJSON, nil
	case hasSuffix(path, ".bin"):
		return CodecBinary, nil
	}
	switch {
	case bytes.HasPrefix(data, []byte(binaryMagic)):
		return CodecBinary, nil
	case len(data) > 0 && data[0] == '{':
		return CodecJSON, nil
	case len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b:
		// Gzip: sniff the decompressed first byte.
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, fmt.Errorf("%w: %w", errUndetectable, err)
		}
		var first [1]byte
		_, err = io.ReadFull(zr, first[:])
		zr.Close()
		if err == nil && first[0] == '{' {
			return CodecJSONGzip, nil
		}
	}
	return 0, errUndetectable
}
