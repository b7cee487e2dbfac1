package collector

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
)

// encodeBinary returns s in CodecBinary form.
func encodeBinary(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// blockRoutes re-assembles []bgp.Route from a RouteBlock scan — the
// reference for column/row equivalence. It also pins that RouteRef.V6
// agrees with the assembled route's IsIPv6.
func blockRoutes(t *testing.T, b *RouteBlock) []bgp.Route {
	t.Helper()
	var out []bgp.Route
	err := b.Scan(func(ref *RouteRef) error {
		pr := breader{b: ref.PrefixBytes}
		addr, err := pr.addr()
		if err != nil {
			return err
		}
		bitsByte, err := pr.byte()
		if err != nil {
			return err
		}
		routeBits := int(bitsByte)
		if bitsByte == 0xFF {
			routeBits = -1
		}
		r := bgp.Route{
			Prefix:           netip.PrefixFrom(addr, routeBits),
			NextHop:          b.NextHops()[ref.NextHop],
			ASPath:           b.ASPaths()[ref.Path],
			Origin:           ref.Origin,
			MED:              ref.MED,
			LocalPref:        ref.LocalPref,
			Communities:      b.CommunitySets()[ref.Communities],
			ExtCommunities:   b.ExtCommunitySets()[ref.ExtCommunities],
			LargeCommunities: b.LargeCommunitySets()[ref.LargeCommunities],
		}
		if ref.V6 != r.IsIPv6() {
			t.Errorf("row %d: ref.V6=%v but assembled route IsIPv6=%v (%s)", ref.Row, ref.V6, r.IsIPv6(), r.Prefix)
		}
		if ref.Row != len(out) {
			t.Errorf("ref.Row=%d, want %d", ref.Row, len(out))
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestSnapshotReaderRewalks pins that no route walk consumes the
// reader: ForEachRoute runs any number of times, Snapshot works after
// it, and Snapshot returns its cached value on every later call.
func TestSnapshotReaderRewalks(t *testing.T) {
	want := sampleSnapshot()
	sr, err := NewSnapshotReaderBytes(encodeBinary(t, want), "x.bin")
	if err != nil {
		t.Fatal(err)
	}
	for walk := 0; walk < 2; walk++ {
		var got []bgp.Route
		if err := sr.ForEachRoute(func(r bgp.Route) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("walk %d: %v", walk, err)
		}
		if !reflect.DeepEqual(got, want.Routes) {
			t.Errorf("walk %d diverged", walk)
		}
	}
	first, err := sr.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after ForEachRoute: %v", err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("Snapshot = %+v, want %+v", first, want)
	}
	if again, err := sr.Snapshot(); err != nil || again != first {
		t.Errorf("second Snapshot = %p, %v; want the cached %p", again, err, first)
	}
}

// TestRouteBlockMatchesRows pins the RouteBlock contract: rows
// re-assembled from the columns equal the materialized decode, Scan
// is re-runnable, and taking a RouteBlock does not consume the
// reader.
func TestRouteBlockMatchesRows(t *testing.T) {
	for _, s := range []*Snapshot{sampleSnapshot(), goldenSnapshot(), {IXP: "X", Date: "2021-10-04"}} {
		data := encodeBinary(t, s)
		want, err := decode(data, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSnapshotReaderBytes(data, "x.bin")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sr.RouteBlock(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rb.NumRoutes() != len(want.Routes) {
			t.Fatalf("NumRoutes=%d, want %d", rb.NumRoutes(), len(want.Routes))
		}
		first := blockRoutes(t, rb)
		again := blockRoutes(t, rb)
		if !reflect.DeepEqual(first, again) {
			t.Error("second Scan diverged from the first")
		}
		for i := range want.Routes {
			if !reflect.DeepEqual(first[i], want.Routes[i]) {
				t.Errorf("row %d: column %+v != materialized %+v", i, first[i], want.Routes[i])
			}
		}
		// The reader is not consumed: a full materialization still works.
		got, err := sr.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot after RouteBlock: %v", err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Error("Snapshot after RouteBlock diverged")
		}
	}
}

// TestRouteBlockNonColumnar pins the ErrNotColumnar fallback signal.
func TestRouteBlockNonColumnar(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sampleSnapshot(), CodecJSON); err != nil {
		t.Fatal(err)
	}
	sr, err := NewSnapshotReaderBytes(buf.Bytes(), "x.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RouteBlock(nil); !errors.Is(err, ErrNotColumnar) {
		t.Errorf("got %v, want ErrNotColumnar", err)
	}
}

// TestRouteBlockArenaReuse decodes alternating snapshots into one
// arena: every decode must be exact even though it overwrites the
// previous decode's storage, including across size changes.
func TestRouteBlockArenaReuse(t *testing.T) {
	snaps := []*Snapshot{goldenSnapshot(), sampleSnapshot(), {IXP: "E", Date: "2021-10-04"}, goldenSnapshot()}
	var a Arena
	for round := 0; round < 2; round++ {
		for i, s := range snaps {
			data := encodeBinary(t, s)
			want, err := decode(data, CodecBinary)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := NewSnapshotReaderBytes(data, "x.bin")
			if err != nil {
				t.Fatal(err)
			}
			rb, err := sr.RouteBlock(&a)
			if err != nil {
				t.Fatalf("round %d snap %d: %v", round, i, err)
			}
			got := blockRoutes(t, rb)
			for j := range want.Routes {
				if !reflect.DeepEqual(got[j], want.Routes[j]) {
					t.Fatalf("round %d snap %d row %d: %+v != %+v", round, i, j, got[j], want.Routes[j])
				}
			}
			if len(got) != len(want.Routes) {
				t.Fatalf("round %d snap %d: %d rows, want %d", round, i, len(got), len(want.Routes))
			}
		}
	}
}

// TestOpenSnapshotAt exercises the mmap/read open path: header
// without route decode, column access, full materialization equal to
// LoadSnapshot, and the non-columnar fallback.
func TestOpenSnapshotAt(t *testing.T) {
	dir := t.TempDir()
	s := goldenSnapshot()
	path, err := SaveSnapshot(dir, s, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}

	sr, err := OpenSnapshotAt(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Codec() != CodecBinary {
		t.Fatalf("codec=%v, want CodecBinary", sr.Codec())
	}
	h := sr.Header()
	if h.IXP != s.IXP || h.Date != s.Date || len(h.Members) != len(s.Members) || h.Routes != nil {
		t.Fatalf("header mismatch: %+v", h)
	}
	rb, err := sr.RouteBlock(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	got := blockRoutes(t, rb)
	if !reflect.DeepEqual(got, want.Routes) {
		t.Error("OpenSnapshotAt columns diverged from LoadSnapshot")
	}
	full, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, want) {
		t.Error("OpenSnapshotAt snapshot diverged from LoadSnapshot")
	}

	// Non-binary file: same interface over the eager decode.
	jpath, err := SaveSnapshot(dir, s, CodecJSONGzip)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := OpenSnapshotAt(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if _, err := jr.RouteBlock(nil); !errors.Is(err, ErrNotColumnar) {
		t.Errorf("json RouteBlock: got %v, want ErrNotColumnar", err)
	}
	jfull, err := jr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jfull.Routes, want.Routes) {
		t.Error("OpenSnapshotAt(json) routes diverged")
	}
}

// TestOpenSnapshotAtErrors pins open failures: missing file, and
// corrupt content detected at open.
func TestOpenSnapshotAtErrors(t *testing.T) {
	if _, err := OpenSnapshotAt(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Error("missing file must fail")
	}
	p := filepath.Join(t.TempDir(), "short.bin")
	if err := os.WriteFile(p, []byte("IX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotAt(p); err == nil {
		t.Error("truncated magic must fail")
	}
}
