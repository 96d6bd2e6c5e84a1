// Package server is the job-management core of the thermod simulation
// daemon: it accepts sweep submissions (lists of runner.Spec), queues them
// with bounded depth, executes them one sweep at a time on a runner
// engine (which parallelizes the jobs within each sweep), and retains the
// results for retrieval.
//
// The package owns every timestamp in the system: job envelopes carry
// submitted/started/finished times from an injectable clock, while the
// runner layer below stays timestamp-free so its results remain cacheable.
// That split is why this package is exempt from the thermolint noambient
// analyzer and internal/runner is not.
package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/telemetry"
)

// SweepRunner executes one sweep; *runner.Engine is the production
// implementation. Implementations must return one result per spec, in
// order, and honor context cancellation between jobs. The per-spec
// lifecycle notifications they send fn feed the jobs SSE stream.
type SweepRunner interface {
	SweepProgress(ctx context.Context, specs []runner.Spec, fn func(runner.Progress)) []runner.Result
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled" // drain deadline hit while queued/running
)

// Job is one submitted sweep and its lifecycle envelope. Timestamps live
// here — and only here: the runner's results underneath are a pure
// function of the specs.
type Job struct {
	ID    string `json:"id"`
	State string `json:"state"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Specs   []runner.Spec   `json:"specs"`
	Results []runner.Result `json:"results,omitempty"`

	// Failed counts results with a non-empty error (set when finished).
	Failed int `json:"failed,omitempty"`
}

// clone returns a copy safe to marshal outside the server lock.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// Bounds on outside input.
const (
	// queueDepth bounds the number of sweeps queued behind the running
	// one; submissions beyond it are rejected with ErrQueueFull (HTTP 429).
	queueDepth = 16
	// maxSpecs bounds the grid size of one submission.
	maxSpecs = 4096
)

// Options configures New.
type Options struct {
	// Clock supplies envelope timestamps (nil = time.Now). Tests inject a
	// fixed clock for deterministic envelopes.
	Clock func() time.Time
	// Metrics, when non-nil, receives thermod_* serving metrics.
	Metrics *telemetry.Registry
}

// Sentinel submission failures; the HTTP layer maps them to status codes.
var (
	ErrQueueFull = fmt.Errorf("job queue full")
	ErrDraining  = fmt.Errorf("server draining")
)

// Server queues and runs sweeps. Create with New, stop with Shutdown.
type Server struct {
	runner SweepRunner
	opts   Options

	mu       sync.Mutex
	jobs     map[string]*Job // guarded by mu
	queue    chan *Job
	draining bool // guarded by mu
	seq      int  // guarded by mu

	// Per-job append-only event logs and their SSE watchers; progStart
	// holds the running job's per-spec start times (the dispatcher runs one
	// sweep at a time, so one set of slots suffices).
	events     map[string][]JobEvent            // guarded by mu
	watchers   map[string]map[int]chan struct{} // guarded by mu
	watcherSeq int                              // guarded by mu
	progStart  map[int]time.Time                // guarded by mu

	runCtx    context.Context
	runCancel context.CancelFunc
	done      chan struct{}
}

// New returns a serving Server; its dispatcher goroutine runs until
// Shutdown.
func New(r SweepRunner, opts Options) *Server {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	s := &Server{
		runner:    r,
		opts:      opts,
		jobs:      make(map[string]*Job),
		queue:     make(chan *Job, queueDepth),
		done:      make(chan struct{}),
		events:    make(map[string][]JobEvent),
		watchers:  make(map[string]map[int]chan struct{}),
		progStart: make(map[int]time.Time),
	}
	if m := opts.Metrics; m != nil {
		// Pre-register the serving surface so a fresh daemon's /metrics
		// lists every thermod_* metric before the first submission.
		for _, name := range []string{
			"thermod_jobs_submitted", "thermod_jobs_completed",
			"thermod_jobs_rejected_queue_full", "thermod_jobs_rejected_draining",
		} {
			m.Counter(name)
		}
		m.Gauge("thermod_queue_depth").Set(0)
	}
	//lint:allow ctxflow the dispatcher outlives any one request; Shutdown cancels this root
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	go s.dispatch()
	return s
}

// Submit validates and enqueues a sweep, returning the queued job
// envelope. Errors: ErrDraining after Shutdown began, ErrQueueFull at
// queue capacity, and spec validation errors (with the failing index).
func (s *Server) Submit(specs []runner.Spec) (*Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty sweep: submit at least one spec")
	}
	if len(specs) > maxSpecs {
		return nil, fmt.Errorf("sweep of %d specs exceeds the %d-spec limit", len(specs), maxSpecs)
	}
	normalized := make([]runner.Spec, len(specs))
	for i, sp := range specs {
		n, err := sp.Normalized()
		if err != nil {
			return nil, fmt.Errorf("spec[%d]: %w", i, err)
		}
		normalized[i] = n
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.count("thermod_jobs_rejected_draining")
		return nil, ErrDraining
	}
	s.seq++
	job := &Job{
		ID:          fmt.Sprintf("job-%06d", s.seq),
		State:       StateQueued,
		SubmittedAt: s.opts.Clock().UTC(),
		Specs:       normalized,
	}
	select {
	case s.queue <- job:
	default:
		s.seq-- // ID not consumed
		s.count("thermod_jobs_rejected_queue_full")
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.appendEventLocked(job.ID, JobEvent{Time: job.SubmittedAt, Type: "state", State: StateQueued})
	s.count("thermod_jobs_submitted")
	s.setQueueGauge()
	return job.clone(), nil
}

// dispatch runs queued sweeps strictly in submission order, one at a time;
// within a sweep the engine fans jobs out across its worker pool. Each
// transition lands in the job's event log (driving the SSE stream).
func (s *Server) dispatch() {
	defer close(s.done)
	for job := range s.queue {
		now := s.opts.Clock().UTC()
		s.mu.Lock()
		job.State = StateRunning
		job.StartedAt = &now
		clear(s.progStart)
		s.appendEventLocked(job.ID, JobEvent{Time: now, Type: "state", State: StateRunning})
		s.setQueueGauge()
		s.mu.Unlock()

		results := s.runner.SweepProgress(s.runCtx, job.Specs, func(p runner.Progress) {
			s.recordProgress(job.ID, p)
		})

		end := s.opts.Clock().UTC()
		failed := 0
		for _, r := range results {
			if r.Err != "" {
				failed++
			}
		}
		state := StateDone
		if s.runCtx.Err() != nil {
			state = StateCanceled
		}
		s.mu.Lock()
		job.Results = results
		job.Failed = failed
		job.FinishedAt = &end
		job.State = state
		s.appendEventLocked(job.ID, JobEvent{Time: end, Type: "state", State: state})
		s.mu.Unlock()
		s.count("thermod_jobs_completed")
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Shutdown drains the server: new submissions are rejected with
// ErrDraining immediately, queued and running sweeps are given until the
// context deadline to finish, then the engine context is canceled so
// not-yet-started jobs fail fast as "canceled". It returns nil on a clean
// drain, the context's error otherwise (pending work is still flushed —
// as canceled results — before return).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	close(s.queue) // dispatcher exits after draining remaining jobs
	s.mu.Unlock()

	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.runCancel() // running simulations finish; pending jobs cancel fast
		<-s.done
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) count(name string) {
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter(name).Inc()
	}
}

// setQueueGauge publishes queued-sweep depth; callers hold s.mu.
func (s *Server) setQueueGauge() {
	if s.opts.Metrics != nil {
		s.opts.Metrics.Gauge("thermod_queue_depth").Set(uint64(len(s.queue)))
	}
}
