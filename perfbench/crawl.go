package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
	"ixplight/internal/telemetry"
)

// crawl-chain collects seven days from the four IXPs' looking glasses
// at a scale where one week's crawl takes about a second on two CPUs.
const (
	crawlScale = 0.005
	crawlDays  = 7
	crawlChurn = 0.03
)

// lgSite is one IXP's looking glass on a loopback listener. Before
// each day is crawled the benchmark points it at that day's route
// server; the handler wrapper counts the time the server is busy.
type lgSite struct {
	name    string
	url     string
	days    []http.Handler
	current atomic.Pointer[http.Handler]
	busy    atomic.Int64 // ns spent in the LG handler
	srv     *http.Server
}

func (s *lgSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	(*s.current.Load()).ServeHTTP(w, r)
	s.busy.Add(int64(time.Since(t0)))
}

func (s *lgSite) show(day int) { s.current.Store(&s.days[day]) }

// lgNetwork is the set of looking glasses a crawl visits.
type lgNetwork struct {
	sites []*lgSite
	dates []string
	wg    sync.WaitGroup
	rt    *timedTransport
}

// newLGNetwork evolves seven days per IXP, builds every day's route
// server through rs.New/AddPeer/Announce, and serves each IXP's LG.
func newLGNetwork(seed int64) (*lgNetwork, error) {
	n := &lgNetwork{rt: &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 8}}}
	if err := n.populate(seed); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *lgNetwork) populate(seed int64) error {
	opts := ixpgen.TemporalOptions{Seed: seed, Scale: crawlScale, Days: crawlDays}
	for _, p := range ixpgen.BigFour() {
		site := &lgSite{name: p.IXP}
		if err := ixpgen.EvolveSeries(p, opts, crawlChurn, func(day int, snap *collector.Snapshot) error {
			h, err := routeServerLG(p, snap)
			if err != nil {
				return err
			}
			site.days = append(site.days, h)
			if len(n.sites) == 0 {
				n.dates = append(n.dates, snap.Date)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("%s: %w", p.IXP, err)
		}
		site.show(0)
		if err := n.serve(site); err != nil {
			return err
		}
	}
	return nil
}

// routeServerLG loads one day into a fresh route server and returns its
// LG API. Routes the server's import policy rejects stay out of the
// RIB, as at a real IXP; the LG reports their count.
func routeServerLG(p ixpgen.Profile, snap *collector.Snapshot) (http.Handler, error) {
	srv, err := rs.New(rs.Config{Scheme: p.Scheme})
	if err != nil {
		return nil, err
	}
	for i, m := range snap.Members {
		if err := srv.AddPeer(rs.Peer{
			ASN: m.ASN, Name: m.Name,
			AddrV4: netutil.PeerAddrV4(i), AddrV6: netutil.PeerAddrV6(i),
			IPv4: m.IPv4, IPv6: m.IPv6,
		}); err != nil {
			return nil, err
		}
	}
	for _, r := range snap.Routes {
		if _, err := srv.Announce(r.PeerAS(), r); err != nil {
			return nil, err
		}
	}
	return lg.NewServer(srv), nil
}

func (n *lgNetwork) serve(site *lgSite) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	site.url = "http://" + ln.Addr().String()
	site.srv = &http.Server{Handler: site}
	n.sites = append(n.sites, site)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		site.srv.Serve(ln)
	}()
	return nil
}

// close stops every listener and waits for the servers to exit.
func (n *lgNetwork) close() {
	for _, s := range n.sites {
		s.srv.Close()
	}
	n.wg.Wait()
	n.rt.base.CloseIdleConnections()
}

func (n *lgNetwork) busyMS() float64 {
	var t int64
	for _, s := range n.sites {
		t += s.busy.Load()
	}
	return float64(t) / 1e6
}

// timedTransport times each LG request from send to the end of its
// body, when recording is on.
type timedTransport struct {
	base   *http.Transport
	record atomic.Bool
	mu     sync.Mutex
	ms     []float64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.record.Load() {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.mu.Lock()
		t.ms = append(t.ms, ms(time.Since(t0)))
		t.mu.Unlock()
	}}
	return resp, nil
}

// take returns and clears the recorded roundtrips.
func (t *timedTransport) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.ms
	t.ms = nil
	return out
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// crawlLayers collects the traced per-pass figures of crawl-chain.
type crawlLayers struct {
	crawl, encode, decode, roundtrip     []float64 // per call, ms
	requests, retries, busy, bytesPerRte []float64 // per pass
	crawlTotal, encodeTotal              []float64 // per pass, ms
}

func runCrawl(b *bench) error {
	var lgs *lgNetwork
	defer func() {
		if lgs != nil {
			lgs.close()
		}
	}()
	if err := b.setup(func(i int) error {
		n, err := newLGNetwork(b.seed)
		if err != nil {
			return err
		}
		if i == 0 {
			lgs = n
		} else {
			n.close()
		}
		return nil
	}); err != nil {
		return err
	}
	client := &http.Client{Transport: lgs.rt}
	dir := filepath.Join(b.work, "crawl")
	var want [][][32]byte // per IXP, per day: the first pass's snapshot digests
	var tl crawlLayers

	pass := func(ctx context.Context, reg *telemetry.Registry, workers int) (float64, error) {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		var mopts collector.MultiOptions
		var lreg *telemetry.Registry
		if reg != nil {
			lreg = b.passRegistry()
			mopts.Metrics, mopts.LGMetrics = collector.NewMetrics(lreg), lg.NewMetrics(lreg)
			lgs.rt.record.Store(true)
			defer lgs.rt.record.Store(false)
		}
		mopts.GlobalInFlight = workers
		targets := make([]collector.Target, len(lgs.sites))
		for i, s := range lgs.sites {
			targets[i] = collector.Target{
				Name: s.name, URL: s.url,
				Options: lg.ClientOptions{HTTPClient: client, MaxRetries: 3, RetryBackoff: 10 * time.Millisecond, RequestTimeout: 30 * time.Second},
				Collect: collector.CollectOptions{NeighborParallelism: workers},
			}
		}
		busy0 := lgs.busyMS()
		encs := make([]*collector.DeltaEncoder, len(targets))
		digests := make([][][32]byte, len(targets))
		var wall time.Duration
		var items []float64
		var requests, retries, stored, routes, crawlMS, encodeMS float64
		for day, date := range lgs.dates {
			for _, s := range lgs.sites {
				s.show(day)
			}
			t0 := time.Now()
			dayCtx, sp := telemetry.StartSpan(ctx, reg, "collector.CollectAllWithOptions")
			sp.SetAttr("date", date)
			results := collector.CollectAllWithOptions(dayCtx, targets, date, mopts)
			sp.End()
			crawlMS += ms(time.Since(t0))
			for i, r := range results {
				if r.Err != nil || r.Partial {
					b.check(false, "crawl %s %s: err=%v partial=%v", r.Target.Name, date, r.Err, r.Partial)
					return 0, fmt.Errorf("crawl %s %s failed", r.Target.Name, date)
				}
				snap := r.Snapshot
				items = append(items, ms(r.Duration))
				requests += float64(r.Requests)
				retries += float64(r.Stats.Retries)
				routes += float64(len(snap.Routes))
				if day == 0 {
					path, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary)
					if err != nil {
						return 0, err
					}
					if encs[i], err = collector.NewDeltaEncoder(snap); err != nil {
						return 0, err
					}
					if info, err := os.Stat(path); err == nil {
						stored += float64(info.Size())
					}
				} else {
					_, es := telemetry.StartSpan(ctx, reg, "collector.DeltaEncoder.Encode")
					te := time.Now()
					data, err := encs[i].Encode(snap)
					d := ms(time.Since(te))
					es.End()
					if err != nil {
						return 0, err
					}
					encodeMS += d
					if reg != nil {
						tl.encode = append(tl.encode, d)
					}
					stored += float64(len(data))
					if err := collector.AtomicWrite(deltaPath(dir, snap), func(w io.Writer) error {
						_, err := w.Write(data)
						return err
					}); err != nil {
						return 0, err
					}
				}
			}
			wall += time.Since(t0)
			for i, r := range results {
				digests[i] = append(digests[i], collector.SnapshotDigest(r.Snapshot))
			}
		}
		if want == nil {
			want = digests
		}
		if err := b.checkStoredChain(ctx, reg, dir, lgs, digests, want, &tl); err != nil {
			return 0, err
		}
		if reg != nil {
			tl.crawl = append(tl.crawl, items...)
			tl.requests = append(tl.requests, requests)
			tl.retries = append(tl.retries, retries+lgRetries(lreg))
			tl.busy = append(tl.busy, lgs.busyMS()-busy0)
			tl.bytesPerRte = append(tl.bytesPerRte, stored/routes)
			tl.roundtrip = append(tl.roundtrip, lgs.rt.take()...)
			tl.crawlTotal = append(tl.crawlTotal, crawlMS)
			tl.encodeTotal = append(tl.encodeTotal, encodeMS)
		}
		return wall.Seconds(), nil
	}

	if !b.traced {
		return b.measureBatch(pass, b.seconds)
	}
	if err := b.traceBatch(pass, b.seconds); err != nil {
		return err
	}
	b.timing("crawl", "ms", tl.crawl)
	b.timing("encode", "ms", tl.encode)
	b.timing("decode", "ms", tl.decode)
	b.timing("roundtrip", "ms", tl.roundtrip)
	b.set("collector.crawl_ms", medianOf(tl.crawl))
	b.set("collector.encode_ms", medianOf(tl.encode))
	b.set("collector.decode_ms", medianOf(tl.decode))
	b.set("collector.bytes_per_route", medianOf(tl.bytesPerRte))
	b.set("lg.requests", medianOf(tl.requests))
	b.set("lg.retries", medianOf(tl.retries))
	b.set("lg.server_busy_ms", medianOf(tl.busy))
	b.set("lg.roundtrip_ms", medianOf(tl.roundtrip))
	b.predictLayers([]string{"collector.crawl", "lg.server"}, []layer{
		{"collector.crawl", medianOf(tl.crawlTotal)},
		{"collector.encode", medianOf(tl.encodeTotal)},
		{"lg.server", medianOf(tl.busy)},
	})
	return nil
}

func deltaPath(dir string, snap *collector.Snapshot) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt))
}

// lgRetries reads the LG client's request retries from its metrics.
func lgRetries(reg *telemetry.Registry) float64 {
	vec := reg.HistogramVec("ixplight_lg_retry_wait_seconds", "", nil, "kind")
	return float64(vec.With("backoff").Count() + vec.With("retry_after").Count())
}

// checkStoredChain re-applies each IXP's stored chain with a
// DeltaApplier and checks that every day reproduces the digest of the
// snapshot the crawl returned, and that every crawl returned the same
// snapshots as the run's first pass, for any worker count.
func (b *bench) checkStoredChain(ctx context.Context, reg *telemetry.Registry, dir string, lgs *lgNetwork, got, want [][][32]byte, tl *crawlLayers) error {
	ctx, sp := telemetry.StartSpan(ctx, reg, "bench.check_chain")
	defer sp.End()
	decode := func(name string, fn func() (*collector.Snapshot, error)) (*collector.Snapshot, error) {
		_, s := telemetry.StartSpan(ctx, reg, name)
		t0 := time.Now()
		snap, err := fn()
		if reg != nil {
			tl.decode = append(tl.decode, ms(time.Since(t0)))
		}
		s.End()
		return snap, err
	}
	for i, site := range lgs.sites {
		bad := 0
		base, err := decode("collector.LoadSnapshot", func() (*collector.Snapshot, error) {
			return collector.LoadSnapshot(filepath.Join(dir, fmt.Sprintf("%s-%s%s", site.name, lgs.dates[0], collector.CodecBinary.Ext())))
		})
		if err != nil {
			return err
		}
		if collector.SnapshotDigest(base) != got[i][0] {
			bad++
		}
		app, err := collector.NewDeltaApplier(base)
		if err != nil {
			return err
		}
		for day := 1; day < len(lgs.dates); day++ {
			next, err := decode("collector.DeltaApplier.Apply", func() (*collector.Snapshot, error) {
				dr, err := collector.OpenDelta(deltaPath(dir, &collector.Snapshot{IXP: site.name, Date: lgs.dates[day]}))
				if err != nil {
					return nil, err
				}
				return app.Apply(dr)
			})
			if err != nil && !errors.Is(err, collector.ErrDeltaBaseMismatch) {
				return err
			}
			if err != nil || collector.SnapshotDigest(next) != got[i][day] {
				bad++
			}
		}
		for day := range got[i] {
			if got[i][day] != want[i][day] {
				bad++
			}
		}
		b.checkN(2*len(lgs.dates), bad, "stored chain of %s", site.name)
	}
	return nil
}
