// Package runner is the deterministic parallel execution engine behind the
// paper-figure sweeps and the thermod simulation service.
//
// Every policy comparison in the paper's evaluation (§6) is an
// embarrassingly parallel grid — policies × applications × suites — of
// simulations that are each a pure function of their configuration. The
// runner exploits that purity three ways:
//
//   - ForEach, a bounded worker pool whose jobs write into caller-indexed
//     slots, so parallel output is byte-identical to serial output at any
//     pool width;
//   - Spec, a canonical-JSON simulation config whose SHA-256 content hash
//     keys an in-memory LRU result cache, so repeated sweeps hit instead
//     of resimulating;
//   - Engine, which ties the two together with per-job panic isolation (a
//     panicking job becomes a failed Result, not a crashed sweep), context
//     cancellation checked at every job boundary, and telemetry counters
//     and gauges for the serving path.
//
// Determinism contract: nothing in this package (or in a job's execution
// path) may read wall-clock time or ambient randomness — the thermolint
// noambient analyzer enforces it — so a cached Outcome is indistinguishable
// from a freshly simulated one. Timestamps exist only in the server-side
// job envelope (package server, which is exempt from the analyzer).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0) … fn(n-1) across at most workers goroutines and
// returns when every call has finished. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 runs every call inline on the
// caller's goroutine, which is the reference serial path.
//
// Jobs are dispatched in index order by an atomic cursor, but callers must
// not rely on completion order: the determinism contract is that each job
// writes only into its own caller-indexed slot. fn must not panic — wrap
// fallible work with its own recover (Engine.Sweep does; the experiments
// package re-raises the lowest-index panic to preserve serial semantics).
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
