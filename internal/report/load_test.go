package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
)

// TestLoadSnapshotDirCodecIndependence pins the analyze acceptance
// contract: running the experiment battery over a binary-encoded
// snapshot directory produces byte-identical output to running it
// over the same snapshots stored as JSON. The two labs share one
// generated series; only the on-disk codec differs.
func TestLoadSnapshotDirCodecIndependence(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 3
	)
	profiles := ixpgen.BigFour()[:2]
	jsonDir := t.TempDir()
	binDir := t.TempDir()
	for _, p := range profiles {
		opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days}
		for d := 0; d < days; d++ {
			w, date, err := ixpgen.GenerateDay(p, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			snap := w.Snapshot(date)
			if _, err := collector.SaveSnapshot(jsonDir, snap, collector.CodecJSON); err != nil {
				t.Fatal(err)
			}
			if _, err := collector.SaveSnapshot(binDir, snap, collector.CodecBinary); err != nil {
				t.Fatal(err)
			}
		}
	}

	run := func(dir string) [][]byte {
		lab, err := NewLabParallel(profiles, seed, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.LoadSnapshotDir(dir); err != nil {
			t.Fatal(err)
		}
		outs, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	jsonOuts := run(jsonDir)
	binOuts := run(binDir)
	for i := range jsonOuts {
		if !bytes.Equal(jsonOuts[i], binOuts[i]) {
			t.Errorf("%s: output differs between JSON and binary snapshot dirs", ExperimentNames[i])
		}
	}
}

// TestLoadSnapshotDirColumnDirect pins the column-direct contract:
// loading a binary snapshot directory column-direct produces
// byte-identical experiment output to loading it through the
// materialize hook — and really does skip materialization (the
// loaded snapshots are header-only with a pinned index).
func TestLoadSnapshotDirColumnDirect(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
		days  = 3
	)
	profiles := ixpgen.BigFour()[:2]
	binDir := t.TempDir()
	for _, p := range profiles {
		opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: days}
		for d := 0; d < days; d++ {
			w, date, err := ixpgen.GenerateDay(p, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := collector.SaveSnapshot(binDir, w.Snapshot(date), collector.CodecBinary); err != nil {
				t.Fatal(err)
			}
		}
	}

	run := func(materialize bool) (*Lab, [][]byte) {
		lab, err := NewLabParallel(profiles, seed, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		lab.materialize = materialize
		if err := lab.LoadSnapshotDir(binDir); err != nil {
			t.Fatal(err)
		}
		outs, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		return lab, outs
	}
	colLab, colOuts := run(false)
	matLab, matOuts := run(true)

	for _, p := range profiles {
		if colLab.Snapshots[p.IXP].Routes != nil {
			t.Errorf("%s: column-direct load materialized routes", p.IXP)
		}
		if matLab.Snapshots[p.IXP].Routes == nil {
			t.Errorf("%s: materialize load produced no routes", p.IXP)
		}
		for _, s := range colLab.Series[p.IXP] {
			if s.Routes != nil {
				t.Errorf("%s %s: column-direct series snapshot materialized routes", p.IXP, s.Date)
			}
		}
	}
	for i := range colOuts {
		if !bytes.Equal(colOuts[i], matOuts[i]) {
			t.Errorf("%s: output differs between column-direct and materialized loading", ExperimentNames[i])
		}
	}
}

// TestLoadSnapshotDirSeries checks the loader's shape contract:
// per-IXP series sorted by date, latest snapshot promoted to the
// point-in-time slot, mixed codecs in one directory.
func TestLoadSnapshotDirSeries(t *testing.T) {
	dir := t.TempDir()
	mk := func(ixp, date string) *collector.Snapshot {
		return &collector.Snapshot{IXP: ixp, Date: date}
	}
	for _, c := range []struct {
		s     *collector.Snapshot
		codec collector.Codec
	}{
		{mk("LINX", "2021-10-06"), collector.CodecBinary},
		{mk("LINX", "2021-10-04"), collector.CodecJSON},
		{mk("LINX", "2021-10-05"), collector.CodecGobGzip},
		{mk("DE-CIX", "2021-10-04"), collector.CodecBinary},
	} {
		if _, err := collector.SaveSnapshot(dir, c.s, c.codec); err != nil {
			t.Fatal(err)
		}
	}
	lab, err := NewLabParallel(ixpgen.BigFour()[:1], 1, 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LoadSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	linx := lab.Series["LINX"]
	if len(linx) != 3 || linx[0].Date != "2021-10-04" || linx[2].Date != "2021-10-06" {
		t.Errorf("LINX series wrong: %+v", linx)
	}
	if lab.Snapshots["LINX"].Date != "2021-10-06" || lab.Snapshots["DE-CIX"].Date != "2021-10-04" {
		t.Errorf("latest promotion wrong")
	}
}

// writeDeltaChain evolves a daily series for each profile into dir as
// a delta chain (day 0 full binary, every later day a .delta), and
// the same days into fullDir as full binary files. Returns the
// materialized series per IXP.
func writeDeltaChain(t *testing.T, profiles []ixpgen.Profile, dir, fullDir string, o ixpgen.TemporalOptions) map[string][]*collector.Snapshot {
	t.Helper()
	series := map[string][]*collector.Snapshot{}
	for _, p := range profiles {
		var enc *collector.DeltaEncoder
		err := ixpgen.EvolveSeries(p, o, 0.05, func(day int, s *collector.Snapshot) error {
			series[p.IXP] = append(series[p.IXP], s)
			if _, err := collector.SaveSnapshot(fullDir, s, collector.CodecBinary); err != nil {
				return err
			}
			if day == 0 {
				var err error
				enc, err = collector.NewDeltaEncoder(s)
				if err != nil {
					return err
				}
				_, err2 := collector.SaveSnapshot(dir, s, collector.CodecBinary)
				return err2
			}
			buf, err := enc.Encode(s)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, s.IXP+"-"+s.Date+collector.DeltaExt), buf, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return series
}

// TestLoadSnapshotDirDeltaChain pins the delta tentpole end to end:
// loading a chain directory (one full day plus deltas) produces
// byte-identical experiment output to loading the same days as full
// files — on the incremental path (which never materializes a
// route), on the applier path (noIncremental hook), and fully
// materialized (materialize hook).
func TestLoadSnapshotDirDeltaChain(t *testing.T) {
	const (
		seed  = 42
		scale = 0.004
	)
	profiles := ixpgen.BigFour()[:2]
	o := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 5, ValleyDays: []int{3}}
	chainDir := t.TempDir()
	fullDir := t.TempDir()
	series := writeDeltaChain(t, profiles, chainDir, fullDir, o)

	run := func(dir string, cfg func(*Lab)) (*Lab, [][]byte) {
		lab, err := NewLabParallel(profiles, seed, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cfg != nil {
			cfg(lab)
		}
		if err := lab.LoadSnapshotDir(dir); err != nil {
			t.Fatal(err)
		}
		outs, err := lab.RunMany(ExperimentNames)
		if err != nil {
			t.Fatal(err)
		}
		return lab, outs
	}

	fullLab, fullOuts := run(fullDir, nil)
	incLab, incOuts := run(chainDir, nil)
	appLab, appOuts := run(chainDir, func(l *Lab) { l.noIncremental = true })
	_, matOuts := run(chainDir, func(l *Lab) { l.materialize = true })

	for i := range fullOuts {
		if !bytes.Equal(fullOuts[i], incOuts[i]) {
			t.Errorf("%s: incremental chain output differs from full files", ExperimentNames[i])
		}
		if !bytes.Equal(fullOuts[i], appOuts[i]) {
			t.Errorf("%s: noIncremental chain output differs from full files", ExperimentNames[i])
		}
		if !bytes.Equal(fullOuts[i], matOuts[i]) {
			t.Errorf("%s: materialize chain output differs from full files", ExperimentNames[i])
		}
	}

	for _, p := range profiles {
		want := series[p.IXP]
		for _, lab := range []*Lab{fullLab, incLab, appLab} {
			got := lab.Series[p.IXP]
			if len(got) != len(want) {
				t.Fatalf("%s: series length %d, want %d", p.IXP, len(got), len(want))
			}
			for d := range got {
				if got[d].Date != want[d].Date {
					t.Errorf("%s day %d: date %q, want %q", p.IXP, d, got[d].Date, want[d].Date)
				}
			}
		}
		// The incremental chain never materializes a route.
		for _, s := range incLab.Series[p.IXP] {
			if s.Routes != nil {
				t.Errorf("%s %s: incremental chain materialized routes", p.IXP, s.Date)
			}
		}
		// The applier path reconstructs the exact snapshots.
		for d, s := range appLab.Series[p.IXP] {
			if d > 0 && !reflect.DeepEqual(s, want[d]) {
				t.Errorf("%s day %d: applier-reconstructed snapshot diverges", p.IXP, d)
			}
		}
	}
}

// TestLoadSnapshotDirDeltaMissingBase pins the failure mode: a chain
// whose base snapshot is absent from the directory is an error, not a
// silently dropped day.
func TestLoadSnapshotDirDeltaMissingBase(t *testing.T) {
	profiles := ixpgen.BigFour()[:1]
	o := ixpgen.TemporalOptions{Seed: 7, Scale: 0.002, Days: 3}
	chainDir := t.TempDir()
	writeDeltaChain(t, profiles, chainDir, t.TempDir(), o)
	ents, err := os.ReadDir(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), collector.DeltaExt) {
			if err := os.Remove(filepath.Join(chainDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	lab, err := NewLabParallel(profiles, 7, 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LoadSnapshotDir(chainDir); err == nil {
		t.Fatal("loading a delta chain without its base succeeded")
	} else if !strings.Contains(err.Error(), "no snapshot for base day") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLoadSnapshotDirMissingProfile pins the partial-directory failure
// mode: a shell lab for the big four over a DE-CIX-only binary
// directory has nothing to run three of its profiles on, so the load
// fails naming each of them instead of leaving nil snapshots for the
// experiments to dereference.
func TestLoadSnapshotDirMissingProfile(t *testing.T) {
	const (
		seed  = 7
		scale = 0.002
	)
	dir := t.TempDir()
	p := *ixpgen.ProfileByName("DE-CIX")
	opts := ixpgen.TemporalOptions{Seed: seed, Scale: scale, Days: 2}
	for d := 0; d < opts.Days; d++ {
		w, date, err := ixpgen.GenerateDay(p, opts, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collector.SaveSnapshot(dir, w.Snapshot(date), collector.CodecBinary); err != nil {
			t.Fatal(err)
		}
	}

	lab := NewLabShell(ixpgen.BigFour(), seed, scale, 2)
	err := lab.LoadSnapshotDir(dir)
	if err == nil {
		t.Fatal("loading a DE-CIX-only directory for the big four succeeded")
	}
	for _, q := range ixpgen.BigFour() {
		if named := strings.Contains(err.Error(), q.IXP); named != (q.IXP != "DE-CIX") {
			t.Errorf("error %q: names %s = %v", err, q.IXP, named)
		}
	}

	// The same directory loads cleanly for the profile it holds.
	lab = NewLabShell([]ixpgen.Profile{p}, seed, scale, 2)
	if err := lab.LoadSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.RunMany([]string{"table1"}); err != nil {
		t.Fatal(err)
	}
}
