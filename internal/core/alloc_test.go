package core_test

import (
	"runtime"
	"testing"

	"thermometer/internal/core"
	"thermometer/internal/workload"
)

// countAllocs returns the number of heap allocations fn performs: the
// fewest of three calls, since the runtime's own background work can add a
// few allocations to any one of them.
func countAllocs(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestRunSteadyStateDoesNotAllocate pins the unobserved record loop at zero
// allocations: core.Run allocates only during setup (structures sized from
// the config), so its allocation count must be independent of trace length.
// Simulating 4× the records with the same configuration must cost exactly
// the same number of allocations.
func TestRunSteadyStateDoesNotAllocate(t *testing.T) {
	app, _ := workload.App(workload.AppNames()[0])
	long := app.ScaleLength(1, 16).Generate(0)
	short := long.Slice(0, long.Len()/4)
	// Warm each trace's cached access stream and memoized frontend stream
	// with one run, so neither measured run pays a one-time per-trace pass.
	cfg := core.DefaultConfig()
	core.Run(long, cfg)
	core.Run(short, cfg)

	allocsShort := countAllocs(func() { core.Run(short, cfg) })
	allocsLong := countAllocs(func() { core.Run(long, cfg) })
	if allocsLong != allocsShort {
		t.Fatalf("allocation count grows with trace length: %d records -> %d allocs, %d records -> %d allocs",
			short.Len(), allocsShort, long.Len(), allocsLong)
	}
	t.Logf("%d allocations per run at %d and %d records", allocsLong, short.Len(), long.Len())
}
