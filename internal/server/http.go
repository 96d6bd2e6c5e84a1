package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"thermometer/internal/runner"
)

type errorResponse struct {
	Error string `json:"error"`
}

// healthBody keeps the readiness payload constant-shaped for scrapers.
type healthBody struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// maxBodyBytes bounds a submission body; a 4096-spec grid of explicit
// configs fits comfortably.
const maxBodyBytes = 8 << 20

// Handler returns the daemon's job API and readiness probe:
//
//	POST /v1/jobs             submit a sweep    → 202 job envelope
//	GET  /v1/jobs/{id}        status + results  → 200 job envelope
//	GET  /v1/jobs/{id}/events live progress     → 200 SSE stream
//	GET  /readyz              readiness probe   → 200, or 503 once draining
//
// Backpressure: 429 with Retry-After when the queue is full; 503 while
// draining. Malformed submissions get 400 with a message naming the
// failing spec index and field. The caller may add routes to the returned
// mux.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds 8 MiB")
		return
	}
	specs, err := decodeSpecs(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.Submit(specs)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// decodeSpecs accepts a bare JSON array of specs, with unknown fields
// rejected so config typos fail loudly instead of silently running a
// default simulation.
func decodeSpecs(body []byte) ([]runner.Spec, error) {
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, errors.New("empty body: POST a JSON array of specs")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var specs []runner.Spec
	if err := dec.Decode(&specs); err != nil {
		return nil, errors.New("malformed specs: " + err.Error())
	}
	return specs, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleReadyz is the readiness probe: 200 while the server accepts new
// submissions, 503 from the moment Shutdown begins the drain — before the
// listener closes — so clients stop sending sweeps that would be answered
// with ErrDraining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining", Reason: "shutdown in progress; new submissions are rejected"})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
