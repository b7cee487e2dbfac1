// Command ixpd runs the warm-index analysis daemon: it loads a
// snapshot/delta dataset once (or generates the calibrated synthetic
// lab), keeps the classified indexes warm, and serves the paper's
// experiments plus per-AS, per-community and time-series lookups as
// JSON over HTTP.
//
// Usage:
//
//	ixpd [-addr :8080] [-snapshots DIR] [-ixps big4] [-scale 0.02]
//	     [-seed 42] [-parallel 0] [-max-inflight 0]
//	     [-request-timeout 15s] [-reload-interval 5s] [-cache-cap 512]
//	     [-metrics-addr :9100] [-trace file] [-drain 5s] [-smoke]
//
// With -snapshots the dataset directory is loaded through the delta-
// chain-aware loader and polled every -reload-interval: a new
// collection day landing in the directory swaps in a fresh dataset
// generation without dropping in-flight requests. The files pick the
// load path (binary files are indexed column-direct, delta chains
// advance each day's index incrementally, other codecs and MRT dumps
// materialize); every path serves identical results. The directory
// must hold a snapshot for every -ixps profile: a load that leaves
// one without fails, and a failed reload keeps the current dataset
// serving. Without -snapshots the daemon serves the synthetic lab
// derived from -ixps/-seed/-scale.
//
// Responses carry strong ETags derived from the dataset digest;
// clients that revalidate with If-None-Match get 304s with zero
// recompute. Identical concurrent cold queries are coalesced into one
// computation. With -metrics-addr a second listener serves /metrics,
// /debug/vars and /debug/pprof/.
//
// -smoke runs a self-contained end-to-end check on ephemeral ports —
// readiness, one experiment fetch, a 304 revalidation, a /metrics
// scrape — and exits 0 on success. `make ixpd-smoke` wires it into
// `make check`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpd"
	"ixplight/internal/ixpgen"
	"ixplight/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	snapshots := flag.String("snapshots", "", "snapshot dataset directory (empty = synthetic lab)")
	ixps := flag.String("ixps", "big4", "IXP profiles: big4, all, or comma-separated names")
	scale := flag.Float64("scale", 0.02, "synthetic workload scale")
	seed := flag.Int64("seed", 42, "synthetic generation seed")
	parallel := flag.Int("parallel", 0, "load/experiment worker bound (0 = GOMAXPROCS)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent response computations (0 = 2×GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "per-request compute admission/wait deadline")
	reloadInterval := flag.Duration("reload-interval", 5*time.Second, "dataset directory poll period (negative disables)")
	cacheCap := flag.Int("cache-cap", 512, "pre-marshaled response cache entries per generation")
	metricsAddr := flag.String("metrics-addr", "", "optional telemetry listen address serving /metrics, /debug/vars and /debug/pprof (e.g. :9100)")
	tracePath := flag.String("trace", "", "write a trace ledger to this file: one root span per served request")
	drain := flag.Duration("drain", 5*time.Second, "graceful shutdown deadline for in-flight requests")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke check on ephemeral ports and exit")
	flag.Parse()

	profiles, err := selectProfiles(*ixps)
	if err != nil {
		fatal(err)
	}

	// The registry is always on for ixpd: the daemon's whole point is
	// observable serving, and the registry is cheap when unscraped.
	reg := telemetry.New()
	analysis.SetTelemetry(reg)

	cfg := ixpd.Config{
		Profiles:       profiles,
		SnapshotDir:    *snapshots,
		Seed:           *seed,
		Scale:          *scale,
		Parallel:       *parallel,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *requestTimeout,
		ReloadInterval: *reloadInterval,
		CacheCap:       *cacheCap,
		Telemetry:      reg,
		Logf:           log.Printf,
	}

	if *smoke {
		if err := runSmoke(cfg, reg); err != nil {
			fatal(err)
		}
		fmt.Println("ixpd smoke: ok")
		return
	}

	var traceSink *telemetry.JSONLSink
	if *tracePath != "" {
		traceSink, err = telemetry.NewJSONLSink(*tracePath, 0)
		if err != nil {
			fatal(err)
		}
		reg.SetSpanSink(traceSink)
		log.Printf("tracing requests → %s", *tracePath)
	}

	srv := ixpd.New(cfg)

	// Bind before the (potentially long) dataset load so probes can
	// distinguish "starting" (connection refused → retry) from
	// "loading" (/readyz 503) from "serving" (/readyz 200).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var telSrv *http.Server
	if *metricsAddr != "" {
		telSrv = &http.Server{Addr: *metricsAddr, Handler: reg.Handler()}
		go func() {
			log.Printf("telemetry on %s (/metrics, /debug/vars, /debug/pprof)", *metricsAddr)
			if err := telSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("telemetry listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("ixpd API on %s", ln.Addr())
		errc <- httpSrv.Serve(ln)
	}()

	t0 := time.Now()
	if err := srv.Load(); err != nil {
		fatal(err)
	}
	gen, digest := srv.Generation()
	log.Printf("dataset ready in %v (generation %d, digest %s)", time.Since(t0).Round(time.Millisecond), gen, digest)
	go srv.WatchReload(ctx)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Printf("shutting down (drain %v)", *drain)
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if telSrv != nil {
		telSrv.Close()
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Printf("trace ledger: %v", err)
		} else {
			log.Printf("trace ledger → %s", *tracePath)
		}
	}
	log.Print("bye")
}

// runSmoke exercises the daemon end to end on ephemeral loopback
// ports: readiness gating, one experiment fetch with an ETag, a 304
// revalidation of the same query, and a /metrics scrape that must
// show the served requests.
func runSmoke(cfg ixpd.Config, reg *telemetry.Registry) error {
	cfg.ReloadInterval = -1 // nothing to watch in a smoke run
	srv := ixpd.New(cfg)

	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	metLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	apiSrv := &http.Server{Handler: srv.Handler()}
	metSrv := &http.Server{Handler: reg.Handler()}
	go apiSrv.Serve(apiLn)
	go metSrv.Serve(metLn)
	defer apiSrv.Close()
	defer metSrv.Close()
	base := "http://" + apiLn.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	// Before the dataset loads, readiness must say so.
	if code, _, _, err := get(client, base+"/readyz", ""); err != nil {
		return err
	} else if code != http.StatusServiceUnavailable {
		return fmt.Errorf("pre-load /readyz: got %d, want 503", code)
	}
	if err := srv.Load(); err != nil {
		return err
	}
	if code, _, _, err := get(client, base+"/readyz", ""); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("post-load /readyz: got %d, want 200", code)
	}

	// One experiment, cold: 200 with a strong ETag and a real body.
	code, etag, body, err := get(client, base+"/v1/experiments/summary", "")
	if err != nil {
		return err
	}
	if code != http.StatusOK || etag == "" || !strings.Contains(body, `"output"`) {
		return fmt.Errorf("experiment fetch: code %d etag %q", code, etag)
	}

	// The same query revalidated: 304, no body.
	code, _, body, err = get(client, base+"/v1/experiments/summary", etag)
	if err != nil {
		return err
	}
	if code != http.StatusNotModified || body != "" {
		return fmt.Errorf("revalidation: got %d with %d body bytes, want bare 304", code, len(body))
	}

	// The scrape must show the daemon's own serving counters.
	code, _, metricsBody, err := get(client, "http://"+metLn.Addr().String()+"/metrics", "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("/metrics: got %d", code)
	}
	for _, want := range []string{"ixplight_ixpd_requests_total", "ixplight_ixpd_not_modified_total 1"} {
		if !strings.Contains(metricsBody, want) {
			return fmt.Errorf("/metrics scrape missing %q", want)
		}
	}
	return nil
}

func get(client *http.Client, url, ifNoneMatch string) (code int, etag, body string, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", "", err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), string(b), nil
}

func selectProfiles(spec string) ([]ixpgen.Profile, error) {
	switch spec {
	case "big4":
		return ixpgen.BigFour(), nil
	case "all":
		return ixpgen.Profiles(), nil
	}
	var out []ixpgen.Profile
	for _, name := range strings.Split(spec, ",") {
		p := ixpgen.ProfileByName(strings.TrimSpace(name))
		if p == nil {
			return nil, fmt.Errorf("unknown IXP %q", name)
		}
		out = append(out, *p)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ixpd:", err)
	os.Exit(1)
}
