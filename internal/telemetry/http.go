package telemetry

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Mount attaches an extra handler to the observer's debug mux at a path
// prefix. Package telemetry stays free of server imports, so a daemon with
// its own routes (thermod's /v1/jobs, /debug/sweep) hands its handlers in
// rather than being imported here.
type Mount struct {
	// Pattern is an http.ServeMux pattern ("/v1/jobs", "/debug/sweep/").
	Pattern string
	Handler http.Handler
}

// Handler assembles the observer's debug mux:
//
//	/metrics       current Report as JSON
//	/debug/vars    expvar (process + published vars)
//	/debug/pprof/  runtime profiles (CPU, heap, goroutine, …)
//
// plus any extra mounts. The caller owns the server and its lifecycle
// (thermod serves it beside the job API; tests use httptest).
func (o *Observer) Handler(mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = o.WriteJSON(w, nil)
	})
	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
		// Register the trailing-slash subtree too, so one Mount covers both
		// /v1/jobs and /v1/jobs/job-000001/events.
		if !strings.HasSuffix(m.Pattern, "/") {
			mux.Handle(m.Pattern+"/", m.Handler)
		}
	}
	return mux
}
