// Command thermod is the simulation daemon: it serves the sweep-job API
// from internal/server on top of a parallel runner engine with a
// content-addressed result cache, alongside the telemetry debug surface.
//
//	POST /v1/jobs              submit a sweep (JSON array of specs)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status + results
//	GET  /v1/jobs/{id}/events  live job progress (Server-Sent Events)
//	GET  /healthz              liveness probe (200 while the process serves)
//	GET  /readyz               readiness probe (503 from the moment a drain starts)
//	GET  /metrics              telemetry report (runner + serving metrics)
//	GET  /debug/sweep          live sweep dashboard (per-job progress grid)
//	GET  /debug/spans          lifecycle spans as Chrome trace JSON
//	GET  /debug/pprof/         runtime profiles
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503 immediately,
// new submissions get ErrDraining, queued and running sweeps are given
// -drain to finish, then pending jobs are canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/server"
	"thermometer/internal/telemetry"
	"thermometer/internal/telemetry/span"
)

// config collects every flag.
type config struct {
	addr      string
	workers   int
	queue     int
	maxSpecs  int
	cacheSize int
	cacheDir  string
	drain     time.Duration
	spancap   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "localhost:8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "engine pool width per sweep (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.queue, "queue", 16, "max sweeps queued behind the running one")
	flag.IntVar(&cfg.maxSpecs, "maxspecs", 4096, "max specs in one submission")
	flag.IntVar(&cfg.cacheSize, "cachesize", 4096, "in-memory result-cache capacity")
	flag.StringVar(&cfg.cacheDir, "cachedir", "", "on-disk result-cache directory (empty = memory only)")
	flag.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-drain timeout on SIGINT/SIGTERM")
	flag.IntVar(&cfg.spancap, "spancap", 16384, "lifecycle span ring capacity (0 = tracing off)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "thermod:", err)
		os.Exit(1)
	}
}

// run serves the jobs API and debug surface until SIGINT/SIGTERM, then
// drains.
func run(cfg config) error {
	cache, err := runner.NewCache(cfg.cacheSize, cfg.cacheDir)
	if err != nil {
		return fmt.Errorf("result cache: %w", err)
	}
	obs := telemetry.New(telemetry.Options{})
	// The span tracer is shared by the server (accept/queue/sweep spans) and
	// the engine (per-job spans). A nil tracer is inert, so -spancap 0 turns
	// the whole surface off with no hot-path cost.
	var spans *span.Tracer
	if cfg.spancap > 0 {
		spans = span.New(func() int64 { return time.Now().UnixNano() }, cfg.spancap)
	}

	engine := &runner.Engine{
		Workers:  cfg.workers,
		Cache:    cache,
		Metrics:  obs.Metrics,
		NowNanos: func() int64 { return time.Now().UnixNano() },
		Spans:    spans,
	}
	engine.PublishMetrics()

	srv := server.New(engine, server.Options{
		QueueDepth: cfg.queue,
		MaxSpecs:   cfg.maxSpecs,
		Metrics:    obs.Metrics,
		Spans:      spans,
	})

	// One mux serves the job API and the telemetry/debug surface.
	handler := obs.Handler([]telemetry.Mount{
		{Pattern: "/v1/jobs", Handler: srv},
		{Pattern: "/healthz", Handler: srv.Healthz()},
		{Pattern: "/readyz", Handler: srv.Readyz()},
		{Pattern: "/debug/sweep", Handler: srv.Dashboard()},
		{Pattern: "/debug/spans", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = spans.WriteChromeTrace(w)
		})},
	}...)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("thermod listening on %s (workers=%d queue=%d cache=%d dir=%q)",
		ln.Addr(), cfg.workers, cfg.queue, cfg.cacheSize, cfg.cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("thermod draining (timeout %s)", cfg.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("thermod drain incomplete: %v (pending jobs canceled)", err)
	}
	return httpSrv.Shutdown(context.Background())
}
