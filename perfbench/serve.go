package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/ixpd"
	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// ixpd-serve traffic is a seeded Zipf stream over about 2000 distinct
// queries, four times the daemon's 512-entry response cache, so hits,
// evictions, recomputes and coalescing all happen. A quarter of the
// requests that repeat a query already answered revalidate it with
// If-None-Match.
//
// The end-to-end metrics time closed-loop passes of servePass requests
// on one connection and on nproc connections, like the batch
// workloads' passes: on a shared two-CPU virtual machine the p99 of
// single requests swings two- to five-fold between runs with the
// host's scheduling jitter, while pass times hold. The open loop at two
// fixed rates, both below the knee, still runs in every run and prints
// its request latencies, timed from when each request was due, and the
// generator's lateness on the summary lines.
const (
	servePass      = 4000   // requests per closed-loop pass
	serveLoRate    = 500.0  // requests per second
	serveHiRate    = 2000.0 // requests per second
	servePhaseSecs = 3.0    // per rate: at least 1000 requests each
	serveQueries   = 2000
	serveZipfS     = 1.1
	serveINMShare  = 0.25
)

// query is one distinct request of the universe.
type query struct {
	path       string
	experiment int // index into report.ExperimentNames, or -1
}

// daemon is one ixpd instance serving a stored chain on loopback.
type daemon struct {
	srv    *ixpd.Server
	url    string
	http   *http.Server
	done   chan struct{}
	busy   atomic.Int64 // ns spent in the daemon's handler
	client *http.Client
}

// startDaemon loads the chain into a fresh ixpd and serves it. tel
// receives the daemon's metrics; it carries no span sink, because the
// daemon roots a trace per request. nil leaves the daemon
// uninstrumented.
func (b *bench) startDaemon(ctx context.Context, reg *telemetry.Registry, c *chain, tel *telemetry.Registry) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.srv = ixpd.New(ixpd.Config{
		Profiles:       ixpgen.BigFour(),
		SnapshotDir:    c.dir,
		Seed:           b.seed,
		Scale:          chainScale,
		Parallel:       b.nproc,
		ReloadInterval: -1,
		Telemetry:      tel,
	})
	_, sp := telemetry.StartSpan(ctx, reg, "ixpd.Server.Load")
	t0 := time.Now()
	err := d.srv.Load()
	if reg != nil {
		b.set("report.load_ms", ms(time.Since(t0)))
	}
	sp.End()
	if err != nil {
		close(d.done)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(d.done)
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	h := d.srv.Handler()
	d.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d.busy.Add(int64(time.Since(t0)))
	})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}
	return d, nil
}

// close stops the daemon's listener and waits for it to exit.
func (d *daemon) close() {
	d.http.Close()
	<-d.done
	d.client.CloseIdleConnections()
}

// buildUniverse derives the distinct queries from the dataset, in
// popularity order. The meta document, the series and the experiments
// are few but large, and what serving one costs varies a lot with its
// size; they sit at fixed ranks, evenly spread, so that the seed never
// decides whether a large document is among the hottest. The seed picks
// which per-AS lookups (members and non-members seen only in AS paths)
// and per-community lookups, with and without an IXP filter, fill the
// other ranks.
func buildUniverse(seed int64, c *chain) []query {
	docs := []query{{path: "/v1/meta", experiment: -1}}
	for _, s := range c.latest {
		docs = append(docs, query{path: "/v1/series/" + s.IXP, experiment: -1})
	}
	for i, name := range report.ExperimentNames {
		docs = append(docs, query{path: "/v1/experiments/" + name, experiment: i})
	}
	var ases, comms []string
	seenAS, seenComm := map[string]bool{}, map[string]bool{}
	add := func(list *[]string, seen map[string]bool, p string) {
		if !seen[p] {
			seen[p] = true
			*list = append(*list, p)
		}
	}
	for _, s := range c.latest {
		members := s.MemberSet()
		for _, m := range s.Members {
			add(&ases, seenAS, fmt.Sprintf("/v1/as/%d", m.ASN))
			add(&ases, seenAS, fmt.Sprintf("/v1/as/%d?ixp=%s", m.ASN, s.IXP))
		}
		for _, r := range s.Routes {
			for _, asn := range r.ASPath {
				if !members[asn] {
					add(&ases, seenAS, "/v1/as/"+strconv.FormatUint(uint64(asn), 10))
				}
			}
			for _, cm := range r.Communities {
				add(&comms, seenComm, "/v1/community/"+cm.String())
				add(&comms, seenComm, "/v1/community/"+cm.String()+"?ixp="+s.IXP)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ases), func(i, j int) { ases[i], ases[j] = ases[j], ases[i] })
	rng.Shuffle(len(comms), func(i, j int) { comms[i], comms[j] = comms[j], comms[i] })
	var lookups []query
	for i := 0; len(docs)+len(lookups) < serveQueries && (i < len(ases) || i < len(comms)); i++ {
		if i < len(ases) {
			lookups = append(lookups, query{path: ases[i], experiment: -1})
		}
		if i < len(comms) {
			lookups = append(lookups, query{path: comms[i], experiment: -1})
		}
	}
	lookups = lookups[:min(len(lookups), serveQueries-len(docs))]
	n := len(docs) + len(lookups)
	stride := n / len(docs)
	qs := make([]query, 0, n)
	for len(qs) < n {
		if len(qs)%stride == 0 && len(docs) > 0 {
			qs, docs = append(qs, docs[0]), docs[1:]
		} else {
			qs, lookups = append(qs, lookups[0]), lookups[1:]
		}
	}
	return qs
}

// stream draws n requests: a Zipf rank into the universe (rank 0 the
// most popular) and whether a repeat carries If-None-Match.
func stream(rng *rand.Rand, n, universe int) (picks []int, inm []bool) {
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(universe-1))
	picks, inm = make([]int, n), make([]bool, n)
	for i := range picks {
		picks[i] = int(z.Uint64())
		inm[i] = rng.Float64() < serveINMShare
	}
	return picks, inm
}

// served is what the traffic saw, for checking after the timed part.
type served struct {
	mu     sync.Mutex
	etags  map[int]string // query → last ETag seen
	bodies map[int][]byte // experiment query → one 200 body
}

func newServed() *served {
	return &served{etags: map[int]string{}, bodies: map[int][]byte{}}
}

// request issues one query; a 304 is only valid when If-None-Match was
// sent, every other answer must be a 200.
func (d *daemon) request(ctx context.Context, reg *telemetry.Registry, qs []query, sv *served, q int, revalidate bool) error {
	_, sp := telemetry.StartSpan(ctx, reg, "bench.request")
	defer sp.End()
	req, err := http.NewRequest(http.MethodGet, d.url+qs[q].path, nil)
	if err != nil {
		return err
	}
	sent := false
	if revalidate {
		sv.mu.Lock()
		etag, ok := sv.etags[q]
		sv.mu.Unlock()
		if ok {
			req.Header.Set("If-None-Match", etag)
			sent = true
		}
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.SetAttrInt("code", int64(resp.StatusCode))
	ok := err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified && sent)
	if !ok {
		return fmt.Errorf("%s: status %d (If-None-Match sent: %v)", qs[q].path, resp.StatusCode, sent)
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if resp.StatusCode == http.StatusOK {
		sv.etags[q] = resp.Header.Get("ETag")
		if qs[q].experiment >= 0 {
			sv.bodies[q] = body
		}
	}
	return nil
}

// checkBodies compares every experiment body served with the reference
// outputs of the same dataset.
func (b *bench) checkBodies(qs []query, sv *served, ref [][]byte) {
	bad := 0
	for q, body := range sv.bodies {
		var doc ixpd.ExperimentDoc
		if err := json.Unmarshal(body, &doc); err != nil || doc.Output != string(ref[qs[q].experiment]) {
			bad++
		}
	}
	b.checkN(len(sv.bodies), bad, "served experiment bodies")
}

// phase runs one open-loop phase and checks its answers.
func (b *bench) phase(ctx context.Context, reg *telemetry.Registry, name string, d *daemon, qs []query, rng *rand.Rand, rate float64, secs float64, ref [][]byte) openLoopResult {
	ctx, sp := telemetry.StartSpan(ctx, reg, "bench.phase")
	sp.SetAttr("phase", name)
	defer sp.End()
	n := max(1, int(rate*secs))
	picks, inm := stream(rng, n, len(qs))
	sv := newServed()
	res := openLoop(n, rate, b.nproc, func(i int) error {
		return d.request(ctx, reg, qs, sv, picks[i], inm[i])
	})
	b.checkN(n, res.Failures, "%s phase requests", name)
	b.checkBodies(qs, sv, ref)
	return res
}

func runServe(b *bench) error {
	var serving *daemon
	defer func() {
		if serving != nil {
			serving.close()
		}
	}()
	var tel *telemetry.Registry
	if b.traced {
		tel = telemetry.New()
	}
	// Each set-up ends with a loaded daemon; the first one takes the
	// traffic.
	c, err := b.setupChain(func(i int, c *chain) error {
		ctx, reg := context.Background(), (*telemetry.Registry)(nil)
		if b.traced {
			ctx, reg = b.root, b.reg
		}
		d, err := b.startDaemon(ctx, reg, c, tel)
		if err != nil {
			return err
		}
		if i == 0 {
			serving = d
		} else {
			d.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	d := serving
	qs := buildUniverse(b.seed, c)
	b.note("query universe: %d distinct queries", len(qs))
	rng := rand.New(rand.NewSource(b.seed))

	// Traced passes only: request time seen by the client, time spent
	// in the daemon's handler, and index constructions.
	var clientMS, busyMS, builds, buildMS float64
	pass := func(ctx context.Context, reg *telemetry.Registry, workers int) (float64, error) {
		if reg != nil {
			busy0 := d.busy.Load()
			analysisDone := traceAnalysis()
			defer func() {
				nb, nms := analysisDone()
				builds, buildMS = builds+nb, buildMS+nms
				busyMS += float64(d.busy.Load()-busy0) / 1e6
			}()
		}
		picks, inm := stream(rng, servePass, len(qs))
		sv := newServed()
		var next, bad atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(picks); i = int(next.Add(1)) - 1 {
					// One span per pass, not per request: a run makes
					// hundreds of thousands of requests.
					if err := d.request(ctx, nil, qs, sv, picks[i], inm[i]); err != nil {
						bad.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		if reg != nil {
			clientMS += wall * 1000 * float64(workers)
		}
		b.checkN(len(picks), int(bad.Load()), "closed-loop requests with %d connections", workers)
		b.checkBodies(qs, sv, c.ref)
		return wall, nil
	}
	budget := b.seconds - time.Duration(2*servePhaseSecs*float64(time.Second))
	openLoopPhases := func(ctx context.Context, reg *telemetry.Registry) openLoopResult {
		lo := b.phase(ctx, reg, "lo", d, qs, rng, serveLoRate, servePhaseSecs, c.ref)
		hi := b.phase(ctx, reg, "hi", d, qs, rng, serveHiRate, servePhaseSecs, c.ref)
		b.timing("open_lo_ms", "ms", lo.Latency)
		b.timing("open_hi_ms", "ms", hi.Latency)
		return openLoopResult{Late: slices.Concat(lo.Late, hi.Late)}
	}

	if !b.traced {
		if err := b.measureBatch(pass, budget); err != nil {
			return err
		}
		b.timing("gen_late_ms", "ms", openLoopPhases(context.Background(), nil).Late)
		return nil
	}

	// The daemon's counters cover all traffic after set-up: the traced
	// and untraced passes and the open loop.
	hits := tel.Counter("ixplight_ixpd_cache_hits_total", "")
	misses := tel.Counter("ixplight_ixpd_cache_misses_total", "")
	notMod := tel.Counter("ixplight_ixpd_not_modified_total", "")
	coalesced := tel.Counter("ixplight_ixpd_coalesced_total", "")
	compute := tel.Histogram("ixplight_ixpd_compute_seconds", "", nil)
	h0, m0, n0, c0 := hits.Value(), misses.Value(), notMod.Value(), coalesced.Value()
	cs0, cn0, comp0 := compute.Sum(), compute.Count(), d.srv.Computes()
	if err := b.traceBatch(pass, budget); err != nil {
		return err
	}
	late := b.timing("gen_late_ms", "ms", openLoopPhases(b.root, b.reg).Late)
	b.set("bench.gen_late_ms", late.PValue)

	h, m, n := float64(hits.Value()-h0), float64(misses.Value()-m0), float64(notMod.Value()-n0)
	if h+m > 0 {
		b.set("ixpd.hit_ratio", h/(h+m))
		b.set("ixpd.not_modified_share", n/(h+m+n))
	}
	b.set("ixpd.coalesced", float64(coalesced.Value()-c0))
	b.set("ixpd.computes", float64(d.srv.Computes()-comp0))
	if n := compute.Count() - cn0; n > 0 {
		b.set("ixpd.compute_ms", (compute.Sum()-cs0)*1000/float64(n))
	}
	b.set("ixpd.busy_ms", busyMS)
	b.set("analysis.index_builds", builds)
	if builds > 0 {
		b.set("analysis.index_build_ms", buildMS/builds)
	}
	// Where the traced passes' request time went: inside the daemon's
	// handler, or in the loopback HTTP stack and the client.
	b.predictLayers([]string{"ixpd"}, []layer{
		{"ixpd", busyMS},
		{"loopback+client", clientMS - busyMS},
	})
	return nil
}
