package runner

import (
	"fmt"
	"sync"

	"thermometer/internal/attribution"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/replay"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// Outcome is the result payload of one job: plain numbers that are a pure
// function of the normalized Spec. It deliberately carries no timestamps
// and no machine-dependent fields, so cached and fresh outcomes are
// interchangeable and the JSON encoding is byte-stable.
type Outcome struct {
	// Trace is the resolved trace name.
	Trace string `json:"trace"`
	// Instructions and Cycles are post-warmup totals (Cycles is 0 in
	// replay mode, which has no clock).
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`

	// BTB demand traffic.
	Accesses uint64 `json:"accesses"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Bypasses uint64 `json:"bypasses,omitempty"`
	// MPKI is demand BTB misses per kilo-instruction.
	MPKI float64 `json:"mpki"`

	// Timing-mode extras: redirect counts and stall attribution.
	BTBMissRedirects uint64 `json:"btb_miss_redirects,omitempty"`
	DirMispredicts   uint64 `json:"dir_mispredicts,omitempty"`
	RedirectStall    uint64 `json:"redirect_stall,omitempty"`
	ICacheStall      uint64 `json:"icache_stall,omitempty"`
	DataStall        uint64 `json:"data_stall,omitempty"`

	// HintQual is the hint-quality audit summary, present only when the
	// spec requested it. Like every other field it is a pure function of
	// the normalized spec (the audit taps a deterministic Belady shadow).
	HintQual *attribution.HintSummary `json:"hintqual,omitempty"`
}

// traceSlot is a single-flight cache entry: the map lookup is cheap and
// mutex-guarded, generation runs once outside the lock.
type traceSlot struct {
	once sync.Once
	tr   *trace.Trace
}

// Traces are pure functions of the spec fields that key them, so the cache
// lives at package level and is shared by every Engine: harnesses that
// construct a fresh Engine per job (benchmark samplers, the CLI) reuse the
// generated trace instead of paying workload synthesis again. Hint tables
// are memoized on the trace itself (profile.HintsFor), so they live exactly
// as long as it does. The cache is bounded: on overflow the whole map is
// dropped and rebuilt, which is trivially correct for a content-addressed
// cache of pure values.
const maxCachedTraces = 64

var (
	cacheMu sync.Mutex
	traces  map[string]*traceSlot // guarded by cacheMu

	// Shared-cache traffic counters, published on /metrics by
	// Engine.publishCacheStats. An eviction here is one dropped map entry
	// (the whole map is dropped at once on overflow).
	traceCacheStats cacheTraffic // guarded by cacheMu
)

// cacheTraffic counts lookups against the package-level trace cache.
type cacheTraffic struct {
	hits, misses, evictions uint64
}

// sharedCacheStats snapshots the trace cache's counters and current size
// for metrics export.
func sharedCacheStats() (tr cacheTraffic, size int) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return traceCacheStats, len(traces)
}

// trace returns (and caches) the trace for a normalized spec. Concurrent
// requests for the same trace generate it exactly once.
func (e *Engine) trace(s Spec) *trace.Trace {
	key := fmt.Sprintf("%s/%s/%d#%d/%d", s.Suite, s.App, s.Index, s.Input, s.Scale)
	cacheMu.Lock()
	if len(traces) >= maxCachedTraces {
		traceCacheStats.evictions += uint64(len(traces))
		traces = nil
	}
	if traces == nil {
		traces = make(map[string]*traceSlot)
	}
	slot := traces[key]
	if slot == nil {
		traceCacheStats.misses++
		slot = &traceSlot{}
		traces[key] = slot
	} else {
		traceCacheStats.hits++
	}
	cacheMu.Unlock()
	slot.once.Do(func() {
		var spec workload.AppSpec
		switch s.Suite {
		case SuiteCBP5:
			spec = workload.CBP5Spec(s.Index)
		case SuiteIPC1:
			spec = workload.IPC1Spec(s.Index)
		default:
			spec, _ = workload.App(s.App) // existence checked by Normalized
		}
		slot.tr = spec.ScaleLength(1, s.Scale).Generate(s.Input)
	})
	return slot.tr
}

// execute runs one normalized spec to completion. It is a pure function of
// the spec: no wall clock, no ambient randomness, no shared mutable state
// beyond the single-flight trace cache and the hint tables memoized on its
// traces (themselves pure functions of the spec fields that key them).
func (e *Engine) execute(s Spec) (*Outcome, error) {
	tr := e.trace(s)
	var ht *profile.HintTable
	if s.Hints {
		entries := s.BTBEntries
		if s.HintEntries > 0 {
			entries = s.HintEntries
		}
		var err error
		if ht, err = profile.HintsFor(tr, entries, s.BTBWays, profile.DefaultConfig()); err != nil {
			return nil, fmt.Errorf("profiling hints: %w", err)
		}
	}

	newPolicy, _ := policy.ByName(s.Policy) // validated by Normalized
	out := &Outcome{Trace: tr.Name}
	switch s.Mode {
	case ModeReplay:
		r := replay.Run(tr.AccessStream(), replay.Options{
			Entries: s.BTBEntries,
			Ways:    s.BTBWays,
			Sets:    s.BTBSets,
			Policy:  newPolicy(),
			Hints:   ht,
		})
		out.Instructions = tr.Instructions()
		out.Accesses = r.Stats.Accesses
		out.Hits = r.Stats.Hits
		out.Misses = r.Stats.Misses
		out.Bypasses = r.Stats.Bypasses
		if out.Instructions > 0 {
			out.MPKI = float64(out.Misses) / float64(out.Instructions) * 1000
		}
	default: // ModeTiming
		cfg := core.DefaultConfig()
		cfg.BTBEntries = s.BTBEntries
		cfg.BTBWays = s.BTBWays
		cfg.BTBSets = s.BTBSets
		cfg.NewPolicy = newPolicy
		cfg.Hints = ht
		var hq *attribution.Recorder
		if s.HintQual {
			// A minimal observer supplies the epoch grid the drift windows
			// close on; no event tracing, so the tap stays cheap. The fixed
			// window keeps outcomes pure functions of the spec, and the
			// audit never perturbs the simulated numbers (pinned by
			// TestHintQualObservationGolden).
			hq = attribution.New(attribution.Options{})
			cfg.HintQual = hq
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: attribution.DefaultWindow})
		}
		r := core.Run(tr, cfg)
		out.Instructions = r.Instructions
		out.Cycles = r.Cycles
		out.IPC = r.IPC()
		out.Accesses = r.BTB.Accesses
		out.Hits = r.BTB.Hits
		out.Misses = r.BTB.Misses
		out.Bypasses = r.BTB.Bypasses
		out.MPKI = r.BTBMPKI()
		out.BTBMissRedirects = r.BTBMissRedirects
		out.DirMispredicts = r.DirMispredicts
		out.RedirectStall = r.RedirectStall
		out.ICacheStall = r.ICacheStall
		out.DataStall = r.DataStall
		if hq != nil {
			sum := hq.HintSummary()
			out.HintQual = &sum
		}
	}
	return out, nil
}
