package server

import "net/http"

// healthBody keeps the probe payloads constant-shaped for scrapers.
type healthBody struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Healthz returns the liveness probe: 200 for as long as the process can
// serve HTTP at all — including during a drain, when the daemon is still
// alive and flushing queued sweeps. Orchestrators restart on liveness
// failure, so this must not flip on shutdown.
func (s *Server) Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
	})
}

// Readyz returns the readiness probe: 200 while the server accepts new
// submissions, 503 from the moment Shutdown begins the drain — before the
// listener closes — so load balancers and orchestrators stop routing
// new sweeps to a daemon that would answer them with ErrDraining.
func (s *Server) Readyz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining", Reason: "shutdown in progress; new submissions are rejected"})
			return
		}
		writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
	})
}
