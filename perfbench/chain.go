package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// The stored dataset of chain-replay and ixpd-serve: an 84-day delta
// chain per IXP (twelve weeks, as table4 needs), 3% daily churn and the
// two collection valleys the sanitation experiment looks for. The scale
// keeps set-up to a few seconds, since it runs three times per run.
const (
	chainScale = 0.005
	chainDays  = 84
	chainChurn = 0.03
)

var chainValleys = []int{5, 13}

// ixpChain is one IXP's stored chain: a binary base and its deltas.
type ixpChain struct {
	profile ixpgen.Profile
	base    string
	deltas  []string // date order
}

// chain is a stored dataset plus the reference experiment outputs,
// computed from the same days in memory without touching a codec.
type chain struct {
	dir    string
	ixps   []ixpChain
	ref    [][]byte
	latest []*collector.Snapshot // last day per IXP, in c.ixps order
	routes int                   // routes summed over every stored day
	bytes  int64                 // stored bytes
}

// buildChain evolves and stores the dataset in dir, and computes the
// reference outputs. In a traced run it records spans and the per-layer
// figures of generation and encoding.
func (b *bench) buildChain(ctx context.Context, reg *telemetry.Registry, dir string) (*chain, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profiles := ixpgen.BigFour()
	c := &chain{dir: dir}
	ref := report.NewLabShell(profiles, b.seed, chainScale, b.nproc)
	ref.Series = map[string][]*collector.Snapshot{}
	var genMS, encMS []float64
	opts := ixpgen.TemporalOptions{Seed: b.seed, Scale: chainScale, Days: chainDays, ValleyDays: chainValleys}
	for _, p := range profiles {
		ic := ixpChain{profile: p}
		var enc *collector.DeltaEncoder
		evCtx, sp := telemetry.StartSpan(ctx, reg, "ixpgen.EvolveSeries")
		last := time.Now()
		err := ixpgen.EvolveSeries(p, opts, chainChurn, func(day int, snap *collector.Snapshot) error {
			genMS = append(genMS, ms(time.Since(last)))
			defer func() { last = time.Now() }()
			ref.Series[p.IXP] = append(ref.Series[p.IXP], snap)
			c.routes += len(snap.Routes)
			if day == 0 {
				_, s := telemetry.StartSpan(evCtx, reg, "collector.SaveSnapshot")
				path, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary)
				s.End()
				if err != nil {
					return err
				}
				ic.base = path
				enc, err = collector.NewDeltaEncoder(snap)
				return err
			}
			_, s := telemetry.StartSpan(evCtx, reg, "collector.DeltaEncoder.Encode")
			t0 := time.Now()
			data, err := enc.Encode(snap)
			encMS = append(encMS, ms(time.Since(t0)))
			s.End()
			if err != nil {
				return err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt))
			ic.deltas = append(ic.deltas, path)
			return collector.AtomicWrite(path, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			})
		})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.IXP, err)
		}
		c.ixps = append(c.ixps, ic)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			c.bytes += info.Size()
		}
	}
	for _, ic := range c.ixps {
		series := ref.Series[ic.profile.IXP]
		ref.Snapshots[ic.profile.IXP] = series[len(series)-1]
		c.latest = append(c.latest, series[len(series)-1])
	}
	if c.ref, err = runMany(ctx, reg, nil, ref); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if reg != nil {
		b.set("ixpgen.generate_day_ms", medianOf(genMS))
		b.set("collector.encode_ms", medianOf(encMS))
		b.set("collector.bytes_per_route", float64(c.bytes)/float64(c.routes))
		b.timing("evolve_day", "ms", genMS)
		b.timing("encode", "ms", encMS)
	}
	return c, nil
}

// setupChain builds the dataset setupRepeats times (once when traced),
// keeps the first and checks that every rebuild reproduces its
// reference outputs. extra, when set, finishes each set-up.
func (b *bench) setupChain(extra func(i int, c *chain) error) (*chain, error) {
	var c *chain
	err := b.setup(func(i int) error {
		ctx, reg := context.Background(), (*telemetry.Registry)(nil)
		if b.traced {
			ctx, reg = b.root, b.reg
		}
		ci, err := b.buildChain(ctx, reg, filepath.Join(b.work, fmt.Sprintf("chain%d", i)))
		if err != nil {
			return err
		}
		if i == 0 {
			c = ci
		} else {
			b.checkN(len(c.ref), outputMismatches(ci.ref, c.ref), "rebuilt chain reference outputs")
		}
		if extra != nil {
			return extra(i, ci)
		}
		return nil
	})
	return c, err
}

// outputMismatches counts experiments whose output differs from want.
func outputMismatches(got, want [][]byte) int {
	bad := 0
	for i := range want {
		if i >= len(got) || !bytes.Equal(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

func runChainReplay(b *bench) error {
	c, err := b.setupChain(nil)
	if err != nil {
		return err
	}
	var layers layerSamples
	var loadMS []float64
	var kept struct {
		lab  *report.Lab
		outs [][]byte
	}
	pass := func(ctx context.Context, reg *telemetry.Registry, workers int) (float64, error) {
		kept.lab, kept.outs = nil, nil // one loaded lab at a time
		tel, recordLayers := b.instrument(reg, &layers)
		t0 := time.Now()
		lab := report.NewLabShell(ixpgen.BigFour(), b.seed, chainScale, workers)
		_, sp := telemetry.StartSpan(ctx, reg, "report.Lab.LoadSnapshotDir")
		err := lab.LoadSnapshotDir(c.dir)
		load := ms(time.Since(t0))
		sp.End()
		var outs [][]byte
		if err == nil {
			outs, err = runMany(ctx, reg, tel, lab)
		}
		wall := time.Since(t0).Seconds()
		recordLayers()
		if reg != nil {
			loadMS = append(loadMS, load)
		}
		if err != nil {
			return 0, err
		}
		b.checkN(len(c.ref), outputMismatches(outs, c.ref), "chain-replay outputs with %d workers", workers)
		kept.lab, kept.outs = lab, outs
		return wall, nil
	}

	if !b.traced {
		err := b.measureBatch(pass, b.seconds)
		runtime.KeepAlive(kept) // live_heap_mb counts the last loaded lab
		return err
	}
	if err := b.traceBatch(pass, b.seconds); err != nil {
		return err
	}
	b.setLayerSamples(&layers)
	b.set("report.load_ms", medianOf(loadMS))
	if err := b.probeChain(c); err != nil {
		return err
	}
	b.predictLayers([]string{"report.load"}, []layer{
		{"report.load", b.values["report.load_ms"]},
		{"report.temporal", b.values["report.temporal_ms"]},
		{"report.point", b.values["report.point_ms"]},
	})
	return nil
}

// probeChain times, one call at a time, the layers a load of the chain
// runs through: decoding each stored day with the collector alone
// (base file, then each delta applied to the day before), and advancing
// the base's series index by each delta.
func (b *bench) probeChain(c *chain) error {
	ctx, sp := telemetry.StartSpan(b.root, b.reg, "bench.chain_probe")
	defer sp.End()
	var decode, advance []float64
	timed := func(name string, fn func() error) (float64, error) {
		_, s := telemetry.StartSpan(ctx, b.reg, name)
		t0 := time.Now()
		err := fn()
		d := ms(time.Since(t0))
		s.End()
		return d, err
	}
	for _, ic := range c.ixps {
		var base *collector.Snapshot
		d, err := timed("collector.LoadSnapshot", func() (err error) {
			base, err = collector.LoadSnapshot(ic.base)
			return err
		})
		if err != nil {
			return err
		}
		decode = append(decode, d)
		app, err := collector.NewDeltaApplier(base)
		if err != nil {
			return err
		}
		for _, path := range ic.deltas {
			d, err := timed("collector.DeltaApplier.Apply", func() error {
				dr, err := collector.OpenDelta(path)
				if err == nil {
					_, err = app.Apply(dr)
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			decode = append(decode, d)
		}

		sr, err := collector.OpenSnapshotAt(ic.base)
		if err != nil {
			return err
		}
		var ix *analysis.Index
		_, err = timed("analysis.IndexSeriesFromReader", func() (err error) {
			ix, err = analysis.IndexSeriesFromReader(sr, ic.profile.Scheme)
			return err
		})
		sr.Close()
		if err != nil {
			return err
		}
		for _, path := range ic.deltas {
			dr, err := collector.OpenDelta(path)
			if err != nil {
				return err
			}
			d, err := timed("analysis.Index.Advance", func() (err error) {
				ix, err = ix.Advance(dr)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			advance = append(advance, d)
		}
	}
	b.timing("decode", "ms", decode)
	b.timing("advance", "ms", advance)
	b.set("collector.decode_ms", medianOf(decode))
	b.set("analysis.advance_ms", medianOf(advance))
	return nil
}
