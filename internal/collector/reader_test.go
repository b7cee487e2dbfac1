package collector

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestHostileSnapshotFiles: a file the reader cannot trust fails with
// a typed error through both open paths, and allocates nothing near
// what a corrupt length prefix claims.
func TestHostileSnapshotFiles(t *testing.T) {
	noise := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(noise)
	noise[0] = 0x07 // not '{', not the gzip or binary magic
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		// "IXPB" ‖ uvarint(1) ‖ uvarint(2³⁰−1): a header length prefix
		// claiming ~1 GiB that the 10-byte file cannot back.
		{"x.bin", appendUvarint(appendUvarint([]byte(binaryMagic), binaryVersion), 1<<30-1), errBinaryTruncated},
		// No extension, and bytes that are neither binary, JSON nor
		// gzip: refused, never handed to a decoder.
		{"noise", noise, errUndetectable},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []struct {
			name string
			fn   func() error
		}{
			{"LoadSnapshot", func() error {
				_, err := LoadSnapshot(path)
				return err
			}},
			{"OpenSnapshot", func() error {
				sr, err := OpenSnapshot(path)
				if err == nil {
					sr.Close()
				}
				return err
			}},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := open.fn()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, c.want) {
				t.Errorf("%s(%s) = %v, want %v", open.name, c.name, err, c.want)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("%s(%s) allocated %d MB on a %d-byte file", open.name, c.name, d>>20, len(c.data))
			}
		}
	}
}
