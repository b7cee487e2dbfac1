package ixpd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
)

// writeDeltaSeries writes days [0, upto) of an evolved series into
// dir — day 0 as a full binary snapshot, later days as delta files —
// and returns the encoded delta for day upto (the "next collection
// day" a reload test lands later) with its destination path.
func writeDeltaSeries(t *testing.T, dir string, p ixpgen.Profile, days, upto int) (nextPath string, nextDelta []byte) {
	t.Helper()
	var enc *collector.DeltaEncoder
	err := ixpgen.EvolveSeries(p, ixpgen.TemporalOptions{Days: days, Seed: 11, Scale: 0.005}, 0.05,
		func(day int, snap *collector.Snapshot) error {
			if day == 0 {
				if _, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary); err != nil {
					return err
				}
				var err error
				enc, err = collector.NewDeltaEncoder(snap)
				return err
			}
			buf, err := enc.Encode(snap)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt))
			if day >= upto {
				nextPath, nextDelta = path, buf
				return nil
			}
			return collector.AtomicWrite(path, func(w io.Writer) error {
				_, werr := w.Write(buf)
				return werr
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	return nextPath, nextDelta
}

// TestHotReload swaps a new delta day into the dataset directory while
// requests are in flight: the poller installs a fresh generation, no
// request is dropped, requests that pinned the old generation still
// complete on it, and new requests see the new day.
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	p := ixpgen.BigFour()[0]
	day3Path, day3Delta := writeDeltaSeries(t, dir, p, 4, 3)

	s := New(Config{
		Profiles:       []ixpgen.Profile{p},
		SnapshotDir:    dir,
		ReloadInterval: 10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	seriesDays := func() int {
		var doc SeriesDoc
		code, _, body := doGet(t, h, "/v1/series/"+p.IXP, "")
		if code != http.StatusOK {
			t.Fatalf("/v1/series: code %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Days)
	}
	if got := seriesDays(); got != 3 {
		t.Fatalf("initial series has %d days, want 3", got)
	}
	oldGen := s.gen.Load()
	_, oldEtag, _ := doGet(t, h, "/v1/meta", "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchReload(ctx)

	// Clients hammer the API across the swap; every response must be a
	// 200 (or 304 for revalidations) — a reload never drops a request.
	var (
		stop     atomic.Bool
		dropped  atomic.Int64
		served   atomic.Int64
		clientWG sync.WaitGroup
	)
	paths := []string{"/v1/meta", "/v1/series/" + p.IXP}
	for w := 0; w < 2; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			for i := 0; !stop.Load(); i++ {
				req := httptest.NewRequest(http.MethodGet, paths[(w+i)%len(paths)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				served.Add(1)
				if rec.Code != http.StatusOK {
					dropped.Add(1)
				}
			}
		}(w)
	}

	// Land the next collection day mid-flight, the way a collector
	// would: one atomic write into the polled directory.
	time.Sleep(20 * time.Millisecond)
	if err := collector.AtomicWrite(day3Path, func(w io.Writer) error {
		_, err := w.Write(day3Delta)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.gen.Load() == oldGen {
		if time.Now().After(deadline) {
			t.Fatal("reload never installed a new generation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	clientWG.Wait()

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d of %d responses dropped across the swap", n, served.Load())
	}
	if got := seriesDays(); got != 4 {
		t.Fatalf("post-reload series has %d days, want 4", got)
	}
	newGen := s.gen.Load()
	if newGen.id == oldGen.id || newGen.digest == oldGen.digest {
		t.Fatalf("generation did not advance: %d/%s -> %d/%s", oldGen.id, oldGen.digest, newGen.id, newGen.digest)
	}

	// The new dataset carries new ETags, so stale client caches
	// revalidate to 200 instead of a false 304.
	if code, newEtag, _ := doGet(t, h, "/v1/meta", oldEtag); code != http.StatusOK || newEtag == oldEtag {
		t.Fatalf("stale etag after reload: code %d etag %q (old %q)", code, newEtag, oldEtag)
	}

	// A request that pinned the old generation before the swap still
	// completes against it: the old lab and cache are intact.
	doc, err := s.seriesDoc(oldGen, p.IXP)
	if err != nil {
		t.Fatalf("old-generation compute after swap: %v", err)
	}
	if got := len(doc.(*SeriesDoc).Days); got != 3 {
		t.Fatalf("old generation now serves %d days, want its original 3", got)
	}
	if _, ok := oldGen.cache.get("/v1/meta"); !ok {
		t.Fatal("old generation's response cache was torn down while pinned")
	}

	// An unchanged directory never swaps.
	if swapped, err := s.Reload(); err != nil || swapped {
		t.Fatalf("reload on unchanged dir: swapped=%v err=%v", swapped, err)
	}
}

// TestReloadMissingProfileKeepsGeneration pins the partial-directory
// contract: a dataset directory that loses every file of one profiled
// IXP fails to load — naming that IXP — and the reload leaves the
// current generation serving instead of installing a lab the
// experiments would nil-dereference on.
func TestReloadMissingProfileKeepsGeneration(t *testing.T) {
	dir := t.TempDir()
	profiles := ixpgen.BigFour()[:2]
	for _, p := range profiles {
		writeDeltaSeries(t, dir, p, 2, 2)
	}
	s := New(Config{
		Profiles:       profiles,
		SnapshotDir:    dir,
		ReloadInterval: -1,
		Logf:           t.Logf,
	})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	oldGen := s.gen.Load()

	gone := profiles[1].IXP
	matches, err := filepath.Glob(filepath.Join(dir, gone+"-*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no files for %s in %s (%v)", gone, dir, err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}

	swapped, err := s.Reload()
	if err == nil || swapped {
		t.Fatalf("reload over a directory without %s: swapped=%v err=%v", gone, swapped, err)
	}
	if !strings.Contains(err.Error(), gone) {
		t.Errorf("reload error %q does not name %s", err, gone)
	}
	if s.gen.Load() != oldGen {
		t.Error("failed reload replaced the serving generation")
	}
	if code, _, body := doGet(t, h, "/v1/experiments/table1", ""); code != http.StatusOK {
		t.Errorf("table1 after failed reload: code %d: %s", code, body)
	}
}
