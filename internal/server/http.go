package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"thermometer/internal/runner"
)

// API shapes. POST /v1/jobs accepts either a bare JSON array of specs or
// this envelope.
type submitRequest struct {
	Specs []runner.Spec `json:"specs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// jobSummary is the list-view projection of a Job (no specs/results).
type jobSummary struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	Specs       int    `json:"specs"`
	Failed      int    `json:"failed,omitempty"`
}

// maxBodyBytes bounds a submission body; a 4096-spec grid of explicit
// configs fits comfortably.
const maxBodyBytes = 8 << 20

// Handler returns the daemon's job API:
//
//	POST /v1/jobs             submit a sweep    → 202 job envelope
//	GET  /v1/jobs             list jobs         → 200 [summaries]
//	GET  /v1/jobs/{id}        status + results  → 200 job envelope
//	GET  /v1/jobs/{id}/events live progress     → 200 SSE stream
//
// Backpressure: 429 with Retry-After when the queue is full; 503 while
// draining. Malformed submissions get 400 with a message naming the
// failing spec index and field.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	accepted := s.opts.Clock().UTC()
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
		s.recordSpan(job.ID, "http_accept", accepted, s.opts.Clock().UTC(), "")
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

// decodeSpecs accepts `[{...}, ...]` or `{"specs": [{...}, ...]}`, both
// with unknown fields rejected so config typos fail loudly instead of
// silently running a default simulation.
func decodeSpecs(body []byte) ([]runner.Spec, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, errors.New("empty body: POST a JSON array of specs or {\"specs\": [...]}")
	}
	if trimmed[0] == '[' {
		var specs []runner.Spec
		if err := strictUnmarshal(body, &specs); err != nil {
			return nil, err
		}
		return specs, nil
	}
	var req submitRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Specs, nil
}

func strictUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errors.New("malformed specs: " + err.Error())
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	summaries := make([]jobSummary, len(jobs))
	for i, j := range jobs {
		summaries[i] = jobSummary{
			ID:          j.ID,
			State:       j.State,
			SubmittedAt: j.SubmittedAt.Format("2006-01-02T15:04:05.000Z07:00"),
			Specs:       len(j.Specs),
			Failed:      j.Failed,
		}
	}
	writeJSON(w, http.StatusOK, summaries)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
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
