package runner

import (
	"context"
	"fmt"
	"sync/atomic"

	"thermometer/internal/telemetry"
)

// Engine executes sweeps: grids of Specs fanned out over a bounded worker
// pool, with results merged in submission order and an optional
// content-addressed cache consulted per job. The zero value is usable; all
// fields are read-only once the first sweep starts.
type Engine struct {
	// Workers bounds pool width (<= 0: runtime.GOMAXPROCS(0); 1: serial).
	Workers int
	// Cache, when non-nil, is consulted (and filled) per job by canonical
	// spec hash.
	Cache *Cache
	// Metrics, when non-nil, receives runner telemetry: runner_jobs_*,
	// runner_cache_*, runner_trace_cache_*, runner_queue_depth and
	// runner_jobs_inflight.
	Metrics *telemetry.Registry

	queued   atomic.Int64
	inflight atomic.Int64

	// execHook, when non-nil, replaces the simulation executor (tests use
	// it to inject panics and synthetic outcomes).
	execHook func(Spec) (*Outcome, error)
}

// Result is one job's outcome envelope. Within a sweep, results are
// ordered exactly like the submitted specs regardless of pool width.
type Result struct {
	// Spec is the normalized spec (defaults explicit); for invalid
	// submissions it echoes the input as received.
	Spec Spec `json:"spec"`
	// Key is the spec's content address ("" for invalid specs).
	Key string `json:"key,omitempty"`
	// Cached reports that the outcome was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Outcome is the simulation result (nil when Err is set).
	Outcome *Outcome `json:"outcome,omitempty"`
	// Err describes why the job failed: an invalid spec, a cancelled
	// sweep, or a panicking simulation (isolated to this job).
	Err string `json:"error,omitempty"`

	// state is the terminal Progress* classification, recorded by runJob at
	// the point the outcome is decided so observers never have to re-parse
	// Err wording. Unexported: it is progress plumbing, not part of the
	// serialized result envelope ("" in hand-built Results means done when
	// Err is empty, failed otherwise).
	state string
}

// Progress states reported to a SweepProgress callback. A job emits exactly
// two notifications: ProgressStarted when a worker picks it up, then one of
// the terminal states mirroring its Result.
const (
	ProgressStarted  = "started"
	ProgressDone     = "done"
	ProgressFailed   = "failed"
	ProgressInvalid  = "invalid"
	ProgressCanceled = "canceled"
)

// Progress is one per-job lifecycle notification within a sweep. It carries
// no timestamps — the runner stays timestamp-free — so observers (the
// thermod server's SSE stream) attach their own clock on receipt.
type Progress struct {
	// Index is the job's position in the submitted spec slice.
	Index int
	// State is one of the Progress* constants.
	State string
	// Cached reports a result served from the content-addressed cache
	// (terminal states only).
	Cached bool
	// Err echoes Result.Err for failed/invalid/canceled jobs.
	Err string
}

// Sweep executes the specs and returns one Result per spec, in submission
// order — the output is byte-identical at any Workers setting. A cancelled
// context fails jobs that have not yet started (running simulations are
// not interruptible); a panicking job becomes a failed Result without
// affecting its neighbors.
func (e *Engine) Sweep(ctx context.Context, specs []Spec) []Result {
	return e.SweepProgress(ctx, specs, nil)
}

// SweepProgress is Sweep with a per-job progress callback: fn (when non-nil)
// receives a ProgressStarted notification as each job is picked up and a
// terminal notification as it completes. fn is called from worker
// goroutines — it must be safe for concurrent use and fast (the worker
// blocks until it returns). Progress observation does not affect results:
// output remains byte-identical to a plain Sweep at any pool width.
func (e *Engine) SweepProgress(ctx context.Context, specs []Spec, fn func(Progress)) []Result {
	results := make([]Result, len(specs))
	e.queued.Add(int64(len(specs)))
	e.setGauges()
	if m := e.Metrics; m != nil {
		m.Counter("runner_sweeps_total").Inc()
		m.Counter("runner_jobs_total").Add(uint64(len(specs)))
	}
	ForEach(e.Workers, len(specs), func(i int) {
		e.queued.Add(-1)
		e.inflight.Add(1)
		e.setGauges()
		if fn != nil {
			fn(Progress{Index: i, State: ProgressStarted})
		}
		results[i] = e.runJob(ctx, specs[i])
		if fn != nil {
			fn(progressOf(i, results[i]))
		}
		e.inflight.Add(-1)
		e.setGauges()
	})
	e.publishCacheStats()
	return results
}

// progressOf derives the terminal progress notification from a completed
// Result.
func progressOf(i int, r Result) Progress {
	p := Progress{Index: i, State: r.state, Cached: r.Cached, Err: r.Err}
	if p.State == "" {
		if r.Err == "" {
			p.State = ProgressDone
		} else {
			p.State = ProgressFailed
		}
	}
	return p
}

func (e *Engine) runJob(ctx context.Context, spec Spec) Result {
	norm, err := spec.Normalized()
	if err != nil {
		e.count("runner_jobs_invalid")
		return Result{Spec: spec, Err: "invalid spec: " + err.Error(), state: ProgressInvalid}
	}
	res := Result{Spec: norm, Key: norm.Key()}
	if ctx != nil && ctx.Err() != nil {
		e.count("runner_jobs_canceled")
		res.Err = "canceled: " + ctx.Err().Error()
		res.state = ProgressCanceled
		return res
	}
	if e.Cache != nil {
		if out, ok := e.Cache.Get(res.Key); ok {
			e.count("runner_cache_hits")
			res.Cached = true
			res.Outcome = out
			res.state = ProgressDone
			return res
		}
		e.count("runner_cache_misses")
	}

	out, err := e.executeSafe(norm)
	if err != nil {
		e.count("runner_jobs_failed")
		res.Err = err.Error()
		res.state = ProgressFailed
		return res
	}
	res.Outcome = out
	res.state = ProgressDone
	if e.Cache != nil {
		e.Cache.Put(res.Key, out)
	}
	e.count("runner_jobs_done")
	return res
}

// executeSafe isolates a job panic: a panicking simulation (bad geometry,
// internal invariant violation) fails that one job instead of unwinding
// the whole sweep.
func (e *Engine) executeSafe(spec Spec) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	if e.execHook != nil {
		return e.execHook(spec)
	}
	return e.execute(spec)
}

func (e *Engine) count(name string) {
	if e.Metrics != nil {
		e.Metrics.Counter(name).Inc()
	}
}

func (e *Engine) setGauges() {
	if m := e.Metrics; m != nil {
		m.Gauge("runner_queue_depth").Set(uint64(max64(e.queued.Load(), 0)))
		m.Gauge("runner_jobs_inflight").Set(uint64(max64(e.inflight.Load(), 0)))
	}
}

// publishCacheStats mirrors the result cache's evictions and size, and the
// trace cache's traffic, into the metrics registry beside the engine's own
// runner_cache_hits/misses.
func (e *Engine) publishCacheStats() {
	m := e.Metrics
	if m == nil {
		return
	}
	if e.Cache != nil {
		size, evictions := e.Cache.Stats()
		m.SetCounter("runner_cache_evictions", evictions)
		m.Gauge("runner_cache_size").Set(uint64(size))
	}
	// The package-level trace cache is shared by every Engine, so its
	// counters are process totals, not per-engine.
	tr, size := sharedCacheStats()
	m.SetCounter("runner_trace_cache_hits", tr.hits)
	m.SetCounter("runner_trace_cache_misses", tr.misses)
	m.SetCounter("runner_trace_cache_evictions", tr.evictions)
	m.Gauge("runner_trace_cache_size").Set(uint64(size))
}

// PublishMetrics pre-registers the engine's metric surface (counters at
// their current values, gauges at their current readings) so a freshly
// booted daemon's /metrics endpoint lists the runner metrics before the
// first sweep arrives, and publishes the current cache statistics.
func (e *Engine) PublishMetrics() {
	m := e.Metrics
	if m == nil {
		return
	}
	for _, name := range []string{
		"runner_sweeps_total", "runner_jobs_total", "runner_jobs_done",
		"runner_jobs_failed", "runner_jobs_invalid", "runner_jobs_canceled",
		"runner_cache_hits", "runner_cache_misses",
	} {
		m.Counter(name)
	}
	e.setGauges()
	e.publishCacheStats()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
