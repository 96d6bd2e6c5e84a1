package runner

import (
	"fmt"
	"sync"

	"thermometer/internal/core"
	"thermometer/internal/hintqual"
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
	HintQual *hintqual.Summary `json:"hintqual,omitempty"`
}

// traceSlot and hintSlot are single-flight cache entries: the map lookup
// is cheap and mutex-guarded, generation runs once outside the lock.
type traceSlot struct {
	once sync.Once
	tr   *trace.Trace
}

type hintSlot struct {
	once sync.Once
	ht   *profile.HintTable
	err  error
}

// Traces and hint tables are pure functions of the spec fields that key
// them, so the caches live at package level and are shared by every Engine:
// harnesses that construct a fresh Engine per job (benchmark samplers, the
// CLI) reuse the generated trace instead of paying workload synthesis again.
// Both caches are bounded: on overflow the whole map is dropped and rebuilt,
// which is trivially correct for a content-addressed cache of pure values.
const (
	maxCachedTraces     = 64
	maxCachedHintTables = 256
)

var (
	cacheMu    sync.Mutex
	traces     map[string]*traceSlot
	hintTables map[string]*hintSlot

	// Shared-cache traffic counters, published on /metrics by
	// Engine.publishCacheStats. An eviction here is one dropped map entry
	// (the whole map is dropped at once on overflow).
	traceCacheStats cacheTraffic // guarded by cacheMu
	hintCacheStats  cacheTraffic // guarded by cacheMu
)

// cacheTraffic counts lookups against one package-level single-flight cache.
type cacheTraffic struct {
	hits, misses, evictions uint64
}

// sharedCacheStats snapshots the package-level cache counters and current
// sizes for metrics export.
func sharedCacheStats() (tr, ht cacheTraffic, trLen, htLen int) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return traceCacheStats, hintCacheStats, len(traces), len(hintTables)
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

// hints returns (and caches) the profile-guided hint table for a
// normalized spec's trace at its profiling geometry.
func (e *Engine) hints(s Spec, tr *trace.Trace) (*profile.HintTable, error) {
	entries := s.BTBEntries
	if s.HintEntries > 0 {
		entries = s.HintEntries
	}
	key := fmt.Sprintf("%s/%s/%d#%d/%d@%dx%d", s.Suite, s.App, s.Index, s.Input, s.Scale, entries, s.BTBWays)
	cacheMu.Lock()
	if len(hintTables) >= maxCachedHintTables {
		hintCacheStats.evictions += uint64(len(hintTables))
		hintTables = nil
	}
	if hintTables == nil {
		hintTables = make(map[string]*hintSlot)
	}
	slot := hintTables[key]
	if slot == nil {
		hintCacheStats.misses++
		slot = &hintSlot{}
		hintTables[key] = slot
	} else {
		hintCacheStats.hits++
	}
	cacheMu.Unlock()
	slot.once.Do(func() {
		slot.ht, _, slot.err = profile.ProfileTrace(tr, entries, s.BTBWays, profile.DefaultConfig())
	})
	return slot.ht, slot.err
}

// execute runs one normalized spec to completion. It is a pure function of
// the spec: no wall clock, no ambient randomness, no shared mutable state
// beyond the single-flight trace/hint caches (whose contents are
// themselves pure functions of the spec fields that key them). The span
// scope, when live, times the stages — trace load, hint load, simulate,
// aggregate — without touching the result.
func (e *Engine) execute(s Spec, sc spanScope) (*Outcome, error) {
	load := sc.start("trace_load")
	tr := e.trace(s)
	load.End()
	var ht *profile.HintTable
	if s.Hints {
		hints := sc.start("hint_load")
		var err error
		if ht, err = e.hints(s, tr); err != nil {
			hints.EndDetail("error")
			return nil, fmt.Errorf("profiling hints: %w", err)
		}
		hints.End()
	}

	out := &Outcome{Trace: tr.Name}
	switch s.Mode {
	case ModeReplay:
		sim := sc.start("simulate")
		r := replay.Run(tr.AccessStream(), replay.Options{
			Entries: s.BTBEntries,
			Ways:    s.BTBWays,
			Sets:    s.BTBSets,
			Policy:  policies[s.Policy](),
			Hints:   ht,
		})
		sim.EndDetail("replay")
		agg := sc.start("aggregate")
		out.Instructions = tr.Instructions()
		out.Accesses = r.Stats.Accesses
		out.Hits = r.Stats.Hits
		out.Misses = r.Stats.Misses
		out.Bypasses = r.Stats.Bypasses
		if out.Instructions > 0 {
			out.MPKI = float64(out.Misses) / float64(out.Instructions) * 1000
		}
		agg.End()
	default: // ModeTiming
		sim := sc.start("simulate")
		cfg := core.DefaultConfig()
		cfg.BTBEntries = s.BTBEntries
		cfg.BTBWays = s.BTBWays
		cfg.BTBSets = s.BTBSets
		cfg.NewPolicy = policies[s.Policy]
		cfg.Hints = ht
		var hq *hintqual.Recorder
		if s.HintQual {
			// A minimal observer supplies the epoch grid the drift windows
			// close on; no event tracing, so the tap stays cheap. The fixed
			// window keeps outcomes pure functions of the spec, and the
			// audit never perturbs the simulated numbers (pinned by
			// TestHintQualObservationGolden).
			hq = hintqual.New(hintqual.Options{})
			cfg.HintQual = hq
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: hintqual.DefaultWindow})
		}
		r := core.Run(tr, cfg)
		sim.EndDetail("timing")
		agg := sc.start("aggregate")
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
			sum := hq.Summary()
			out.HintQual = &sum
		}
		agg.End()
	}
	return out, nil
}
