package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"thermometer/internal/runner"
)

// JobEvent is one entry in a job's append-only event log: either a
// job-level state transition (queued → running → done/canceled) or a
// per-spec progress notification from the runner.
type JobEvent struct {
	Time  time.Time `json:"time"`
	Type  string    `json:"type"`            // "state" | "progress"
	State string    `json:"state,omitempty"` // job state, for "state" events

	Progress *SpecProgress `json:"progress,omitempty"` // for "progress" events
}

// SpecProgress is the per-spec payload of a progress event. Durations are
// computed here, in the serving layer that owns the clock — the runner
// below reports only what happened, never when.
type SpecProgress struct {
	// Index is the spec's position in the submitted sweep.
	Index int `json:"index"`
	// State is a runner progress state: started, done, failed, invalid, or
	// canceled.
	State string `json:"state"`
	// Cached reports a content-addressed cache hit.
	Cached bool `json:"cached,omitempty"`
	// Err carries the failure reason for failed/invalid/canceled specs.
	Err string `json:"error,omitempty"`
	// DurationMs is wall time from this spec's started event (terminal
	// states only; 0 for cache hits that complete within clock resolution).
	DurationMs float64 `json:"duration_ms,omitempty"`
}

// appendEventLocked appends the event to the job's log and nudges the
// job's watchers. Callers hold s.mu. The notification send is non-blocking
// — a slow or gone SSE client can never stall the dispatcher; the watcher
// re-reads the log from its cursor when it wakes.
func (s *Server) appendEventLocked(jobID string, ev JobEvent) {
	s.events[jobID] = append(s.events[jobID], ev)
	for _, ch := range s.watchers[jobID] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// watch registers an event watcher for a job: ch receives a (coalesced)
// nudge whenever the job's log grows. cancel unregisters; it is idempotent.
func (s *Server) watch(jobID string) (ch chan struct{}, cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watcherSeq++
	id := s.watcherSeq
	ch = make(chan struct{}, 1)
	if s.watchers[jobID] == nil {
		s.watchers[jobID] = make(map[int]chan struct{})
	}
	s.watchers[jobID][id] = ch
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.watchers[jobID], id)
		if len(s.watchers[jobID]) == 0 {
			delete(s.watchers, jobID)
		}
	}
}

// eventsSince returns a copy of the job's events from index i onward plus
// whether the job has reached a terminal state. The terminal state event is
// the last one appended, under the same lock as the state change, so once
// terminal is true the returned events complete the log.
func (s *Server) eventsSince(jobID string, i int) (evs []JobEvent, terminal bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if log := s.events[jobID]; i < len(log) {
		evs = append(evs, log[i:]...)
	}
	j := s.jobs[jobID]
	terminal = j != nil && (j.State == StateDone || j.State == StateCanceled)
	return evs, terminal
}

// recordProgress translates a runner progress notification into a job
// event, attaching the spec's wall-clock duration from the envelope clock.
// It is called from engine worker goroutines.
func (s *Server) recordProgress(jobID string, p runner.Progress) {
	now := s.opts.Clock().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &SpecProgress{Index: p.Index, State: p.State, Cached: p.Cached, Err: p.Err}
	if p.State == runner.ProgressStarted {
		s.progStart[p.Index] = now
	} else if start, ok := s.progStart[p.Index]; ok {
		sp.DurationMs = float64(now.Sub(start)) / float64(time.Millisecond)
		delete(s.progStart, p.Index)
	}
	s.appendEventLocked(jobID, JobEvent{Time: now, Type: "progress", Progress: sp})
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent-Events stream of
// the job's event log. Already-recorded events (including those of long-
// finished jobs) are replayed first, then the stream follows the log live
// and closes with an end event after the terminal state event. The
// dispatcher never blocks on this handler: it only nudges a buffered
// channel, and the handler re-reads the shared log at its own pace.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, "no such job "+id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	notify, cancel := s.watch(id)
	defer cancel()
	for cursor := 0; ; {
		evs, terminal := s.eventsSince(id, cursor)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return // client gone
			}
		}
		cursor += len(evs)
		if terminal {
			fmt.Fprintf(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}
