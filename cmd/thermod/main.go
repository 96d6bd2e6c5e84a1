// Command thermod is the simulation daemon: it serves the sweep-job API
// from internal/server on top of a parallel runner engine with a
// content-addressed result cache.
//
//	POST /v1/jobs              submit a sweep (JSON array of specs)
//	GET  /v1/jobs/{id}         job status + results
//	GET  /v1/jobs/{id}/events  live job progress (Server-Sent Events)
//	GET  /readyz               readiness probe (503 from the moment a drain starts)
//	GET  /metrics              telemetry report (runner + serving counters)
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503 immediately,
// new submissions get ErrDraining, queued and running sweeps are given
// drainTimeout to finish, then pending jobs are canceled.
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
)

const (
	// cacheSize is the result cache's capacity in outcomes.
	cacheSize = 4096
	// drainTimeout bounds the graceful drain on SIGINT/SIGTERM.
	drainTimeout = 30 * time.Second
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	flag.Parse()

	if err := run(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "thermod:", err)
		os.Exit(1)
	}
}

// run serves the jobs API and /metrics until SIGINT/SIGTERM, then drains.
func run(addr string) error {
	obs := telemetry.New(telemetry.Options{})
	engine := &runner.Engine{Cache: runner.NewCache(cacheSize), Metrics: obs.Metrics}
	engine.PublishMetrics()
	srv := server.New(engine, server.Options{Metrics: obs.Metrics})

	mux := srv.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteJSON(w, nil)
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("thermod listening on %s (result cache %d)", ln.Addr(), cacheSize)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("thermod draining (timeout %s)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("thermod drain incomplete: %v (pending jobs canceled)", err)
	}
	return httpSrv.Shutdown(context.Background())
}
