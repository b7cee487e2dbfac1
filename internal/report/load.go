package report

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
	"ixplight/internal/mrt"
)

// LoadSnapshotDir replaces the lab's generated snapshots with stored
// files from dir: every regular file is decoded (codec deduced per
// file, so a directory may mix JSON/binary/MRT freely), the full
// date-ordered series per IXP feeds the temporal experiments, and the
// latest snapshot per IXP becomes the point-in-time input. Files are
// decoded across the lab's worker pool; the resulting series order is
// deterministic regardless of worker interleaving because it is
// re-sorted by date.
//
// The input picks the path: columnar binary files of a profiled IXP
// are indexed straight off their columns — the loaded snapshot is
// header-only with the classified index attached, and every analysis
// wrapper answers from the index. Other codecs, MRT dumps and
// unprofiled IXPs materialize their routes.
//
// Delta files (.delta) reconstruct their days from the chain base in
// the same directory: each day's index is advanced incrementally from
// the previous day's, never materializing the routes; a chain whose
// base was materialized (a non-binary base, or an unprofiled IXP)
// runs through a materializing DeltaApplier instead. A delta whose base snapshot is
// missing from dir is an error, and so is a profile IXP left without
// any snapshot: experiments need one per profile.
func (l *Lab) LoadSnapshotDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files, deltaFiles []string
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasPrefix(e.Name(), "."):
			// AtomicWrite stages dot-prefixed temp files in the same
			// directory; a loader racing a collector must not decode one.
		case strings.HasSuffix(e.Name(), collector.DeltaExt):
			deltaFiles = append(deltaFiles, e.Name())
		default:
			files = append(files, e.Name())
		}
	}

	// Deltas parse up front (they decode lazily, so this is cheap) so
	// chain bases are known before the full snapshots load: a base of
	// an incremental chain must be indexed as a series day 0, not as a
	// standalone column-direct index.
	deltas := make([]*collector.DeltaReader, len(deltaFiles))
	if _, err := runPool(len(deltaFiles), l.workers(), func(i int) error {
		dr, err := collector.OpenDelta(filepath.Join(dir, deltaFiles[i]))
		if err != nil {
			return fmt.Errorf("load %s: %w", deltaFiles[i], err)
		}
		deltas[i] = dr
		return nil
	}); err != nil {
		return err
	}
	incremental := !l.materialize && !l.noIncremental
	chainBases := map[string]bool{}
	if len(deltas) > 0 {
		emitted := map[string]bool{}
		for _, dr := range deltas {
			emitted[chainKey(dr.Header().IXP, dr.Header().Date)] = true
		}
		for _, dr := range deltas {
			if k := chainKey(dr.Header().IXP, dr.BaseDate()); !emitted[k] {
				chainBases[k] = true
			}
		}
	}

	schemes := make(map[string]*dictionary.Scheme, len(l.Profiles))
	if !l.materialize {
		for _, p := range l.Profiles {
			schemes[p.IXP] = p.Scheme
		}
	}
	snaps := make([]*collector.Snapshot, len(files))
	if _, err := runPool(len(files), l.workers(), func(i int) error {
		path := filepath.Join(dir, files[i])
		var snap *collector.Snapshot
		var err error
		if strings.HasSuffix(files[i], ".mrt") {
			snap, err = loadMRTFile(path)
		} else {
			snap, err = loadSnapshotFile(path, schemes, incremental, chainBases)
		}
		if err != nil {
			return fmt.Errorf("load %s: %w", files[i], err)
		}
		snaps[i] = snap
		return nil
	}); err != nil {
		return err
	}

	if len(deltas) > 0 {
		chained, err := applyDeltaChains(snaps, deltas, deltaFiles, schemes, incremental)
		if err != nil {
			return err
		}
		snaps = append(snaps, chained...)
	}

	l.Series = make(map[string][]*collector.Snapshot)
	for _, snap := range snaps {
		l.Series[snap.IXP] = append(l.Series[snap.IXP], snap)
	}
	for ixp, series := range l.Series {
		slices.SortStableFunc(series, func(a, b *collector.Snapshot) int {
			return strings.Compare(a.Date, b.Date)
		})
		l.Snapshots[ixp] = series[len(series)-1]
	}
	var missing []string
	for _, p := range l.Profiles {
		if l.Snapshots[p.IXP] == nil {
			missing = append(missing, p.IXP)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("report: no snapshot in %s for profile IXP(s) %s", dir, strings.Join(missing, ", "))
	}
	return nil
}

func chainKey(ixp, date string) string { return ixp + "\x00" + date }

// applyDeltaChains reconstructs every delta day, in date order per
// chain, from the loaded base snapshots. On the incremental path a
// chain base carries a series index (loadSnapshotFile built it that
// way) and each day advances the previous day's index; otherwise the
// chain runs through a materializing DeltaApplier. Either way the
// reconstructed day joins the pool a later delta may build on.
func applyDeltaChains(snaps []*collector.Snapshot, deltas []*collector.DeltaReader, names []string, schemes map[string]*dictionary.Scheme, incremental bool) ([]*collector.Snapshot, error) {
	byDate := make(map[string]*collector.Snapshot, len(snaps)+len(deltas))
	for _, s := range snaps {
		byDate[chainKey(s.IXP, s.Date)] = s
	}
	order := make([]int, len(deltas))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return strings.Compare(deltas[a].Header().Date, deltas[b].Header().Date)
	})

	appliers := map[string]*collector.DeltaApplier{}
	var chained []*collector.Snapshot
	for _, i := range order {
		dr := deltas[i]
		ixp := dr.Header().IXP
		baseKey := chainKey(ixp, dr.BaseDate())
		base := byDate[baseKey]
		if base == nil {
			return nil, fmt.Errorf("apply %s: no snapshot for base day %s of %s", names[i], dr.BaseDate(), ixp)
		}
		var next *collector.Snapshot
		if incremental && base.Routes == nil {
			s, err := analysis.AdvanceSnapshot(base, schemes[ixp], dr)
			if err != nil {
				return nil, fmt.Errorf("apply %s: %w", names[i], err)
			}
			next = s
		} else {
			app := appliers[baseKey]
			if app == nil {
				var err error
				if app, err = collector.NewDeltaApplier(base); err != nil {
					return nil, fmt.Errorf("apply %s: %w", names[i], err)
				}
			}
			s, err := app.Apply(dr)
			if err != nil {
				return nil, fmt.Errorf("apply %s: %w", names[i], err)
			}
			delete(appliers, baseKey)
			appliers[chainKey(ixp, s.Date)] = app
			next = s
		}
		byDate[chainKey(ixp, next.Date)] = next
		chained = append(chained, next)
	}
	return chained, nil
}

// loadSnapshotFile decodes one native snapshot file through the
// random-access reader (mmap where the platform provides it), so the
// codec is deduced from the extension or the file's magic bytes. A
// columnar file whose IXP has a scheme in schemes is not materialized:
// the classified index is built column-direct and pinned on the
// header-only snapshot — as a series index when the file heads an
// incremental delta chain, so later days can advance it.
func loadSnapshotFile(path string, schemes map[string]*dictionary.Scheme, incremental bool, chainBases map[string]bool) (*collector.Snapshot, error) {
	sr, err := collector.OpenSnapshotAt(path)
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	if sr.Codec() == collector.CodecBinary {
		head := sr.Header()
		if scheme := schemes[head.IXP]; scheme != nil {
			isBase := chainBases[chainKey(head.IXP, head.Date)]
			if isBase && !incremental {
				// A materializing chain needs the base's routes.
				return sr.Snapshot()
			}
			var ix *analysis.Index
			if isBase {
				ix, err = analysis.IndexSeriesFromReader(sr, scheme)
			} else {
				ix, err = analysis.IndexFromReader(sr, scheme)
			}
			if err != nil {
				return nil, err
			}
			s := ix.Snapshot()
			analysis.AttachIndex(s, ix)
			return s, nil
		}
	}
	return sr.Snapshot()
}

func loadMRTFile(path string) (*collector.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mrt.ReadRIB(f)
}
