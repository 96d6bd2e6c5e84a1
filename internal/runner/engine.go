package runner

import (
	"context"
	"fmt"
	"sync/atomic"

	"thermometer/internal/telemetry"
	"thermometer/internal/telemetry/span"
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
	// runner_cache_*, runner_queue_depth, runner_jobs_inflight, and — when
	// NowNanos is also set — the runner_job_latency_us histogram.
	Metrics *telemetry.Registry
	// NowNanos, when non-nil, is the injected monotonic-ish clock used
	// ONLY for the job latency histogram. Job execution itself must stay
	// timestamp-free (the noambient analyzer forbids time.Now in this
	// package), so the serving layer injects its clock here and cached
	// results stay interchangeable with fresh ones.
	NowNanos func() int64
	// Spans, when non-nil, receives lifecycle spans for every job: a root
	// "job" span plus cache/trace_load/hint_load/simulate/aggregate stage
	// children. Span identity derives from the job's spec key (see package
	// span), so repeat sweeps trace identically; the tracer carries its own
	// injected clock, keeping this package timestamp-free. Spans observe
	// execution without influencing it — outcomes are byte-identical with
	// the tracer attached or absent.
	Spans *span.Tracer

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
	// Key is the spec's content address ("" for invalid specs).
	Key string
	// Err echoes Result.Err for failed/invalid/canceled jobs.
	Err string
	// Instructions and Accesses echo the outcome so observers can derive
	// throughput (blocks/sec) against their own clock.
	Instructions uint64
	Accesses     uint64
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
	p := Progress{Index: i, State: r.state, Cached: r.Cached, Key: r.Key, Err: r.Err}
	if p.State == "" {
		if r.Err == "" {
			p.State = ProgressDone
		} else {
			p.State = ProgressFailed
		}
	}
	if p.State == ProgressDone && r.Outcome != nil {
		p.Instructions = r.Outcome.Instructions
		p.Accesses = r.Outcome.Accesses
	}
	return p
}

// Run executes a single spec (a one-job sweep).
func (e *Engine) Run(ctx context.Context, spec Spec) Result {
	return e.Sweep(ctx, []Spec{spec})[0]
}

// spanScope carries the deterministic span identity of one job through its
// execution stages. The zero scope (nil tracer) is inert, so the untraced
// path costs one nil check per stage.
type spanScope struct {
	t     *span.Tracer
	key   string  // the job's spec content address
	trace span.ID // Derive(key)
	root  span.ID // Derive(key, "job"), parent of every stage span
}

func newSpanScope(t *span.Tracer, key string) spanScope {
	if t == nil {
		return spanScope{}
	}
	return spanScope{t: t, key: key, trace: span.Derive(key), root: span.Derive(key, "job")}
}

// start opens a stage span under the job root; its ID derives from the spec
// key and stage name, so repeat runs trace identically.
func (sc spanScope) start(name string) span.Active {
	if sc.t == nil {
		return span.Active{}
	}
	return sc.t.Start(sc.trace, span.Derive(sc.key, name), sc.root, name)
}

func (e *Engine) runJob(ctx context.Context, spec Spec) Result {
	norm, err := spec.Normalized()
	if err != nil {
		e.count("runner_jobs_invalid")
		return Result{Spec: spec, Err: "invalid spec: " + err.Error(), state: ProgressInvalid}
	}
	res := Result{Spec: norm, Key: norm.Key()}
	sc := newSpanScope(e.Spans, res.Key)
	var job span.Active
	if sc.t != nil {
		job = sc.t.Start(sc.trace, sc.root, 0, "job")
	}
	if ctx != nil && ctx.Err() != nil {
		e.count("runner_jobs_canceled")
		res.Err = "canceled: " + ctx.Err().Error()
		res.state = ProgressCanceled
		job.EndDetail("canceled")
		return res
	}
	if e.Cache != nil {
		lookup := sc.start("cache")
		out, ok := e.Cache.Get(res.Key)
		if ok {
			lookup.EndDetail("hit")
			e.count("runner_cache_hits")
			res.Cached = true
			res.Outcome = out
			res.state = ProgressDone
			job.EndDetail("cached")
			return res
		}
		lookup.EndDetail("miss")
		e.count("runner_cache_misses")
	}

	var start int64
	if e.NowNanos != nil {
		start = e.NowNanos()
	}
	out, err := e.executeSafe(norm, sc)
	if e.NowNanos != nil && e.Metrics != nil {
		if d := e.NowNanos() - start; d > 0 {
			e.Metrics.Histogram("runner_job_latency_us").Observe(uint64(d) / 1000)
		}
	}
	if err != nil {
		e.count("runner_jobs_failed")
		res.Err = err.Error()
		res.state = ProgressFailed
		job.EndDetail("failed")
		return res
	}
	res.Outcome = out
	res.state = ProgressDone
	if e.Cache != nil {
		e.Cache.Put(res.Key, out)
	}
	e.count("runner_jobs_done")
	job.EndDetail("done")
	return res
}

// executeSafe isolates a job panic: a panicking simulation (bad geometry,
// internal invariant violation) fails that one job instead of unwinding
// the whole sweep.
func (e *Engine) executeSafe(spec Spec, sc spanScope) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	if e.execHook != nil {
		return e.execHook(spec)
	}
	return e.execute(spec, sc)
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

// publishCacheStats mirrors the result cache's internal traffic counters
// into the metrics registry so they show up on /metrics alongside the
// engine's own runner_cache_hits/misses (which count only engine-level
// lookups, not disk promotions or evictions).
func (e *Engine) publishCacheStats() {
	m := e.Metrics
	if m == nil {
		return
	}
	if e.Cache != nil {
		st := e.Cache.Stats()
		m.SetCounter("runner_cache_mem_hits", st.Hits)
		m.SetCounter("runner_cache_disk_hits", st.DiskHits)
		m.SetCounter("runner_cache_promotions", st.Promotions)
		m.SetCounter("runner_cache_lookup_misses", st.Misses)
		m.SetCounter("runner_cache_evictions", st.Evictions)
		m.SetCounter("runner_cache_disk_errors", st.DiskErrors)
		m.Gauge("runner_cache_size").Set(uint64(e.Cache.Len()))
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
