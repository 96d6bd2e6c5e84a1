// Package core implements the timing simulator: a decoupled-frontend (FDIP)
// CPU model driven by branch traces, parameterized per Table 1 of the paper.
//
// The model is event-driven at basic-block granularity. A branch-prediction
// unit (BPU) walks blocks ahead of fetch, enqueueing them into the FTQ and
// letting FDIP prefetch their instruction lines; the run-ahead lead is what
// hides instruction-miss latency. The three frontend hazards the paper
// studies each cost a redirect and — critically — squash the FTQ, zeroing
// the prefetch lead so that subsequent instruction misses are exposed:
//
//   - BTB miss on a taken branch (decode-time redirect for direct
//     branches, execute-time for indirect);
//   - conditional direction misprediction (execute-time redirect);
//   - RAS/IBTB target misprediction (execute-time redirect).
//
// Retirement is 6-wide; a synthetic per-block load stream adds a backend
// CPI component so frontend improvements translate into realistic (not
// unbounded) speedups.
package core

import (
	"thermometer/internal/attribution"
	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
)

// Config parameterizes one simulation run.
type Config struct {
	// FetchWidth is instructions fetched/retired per cycle (Table 1: 6).
	FetchWidth int
	// FTQInstrCap is the FTQ capacity in instructions (Table 1: 24
	// entries × 8 = 192); it caps FDIP run-ahead.
	FTQInstrCap int

	// BTBEntries/BTBWays give the BTB geometry (Table 1: 8192 × 4);
	// BTBSets, when nonzero, overrides the derived set count.
	BTBEntries int
	BTBWays    int
	BTBSets    int
	// IBTBEntries and RASEntries size the companion predictors.
	IBTBEntries int
	RASEntries  int

	// DecodeRedirectPenalty and ExecRedirectPenalty are the bubble sizes
	// for front-end resteers.
	DecodeRedirectPenalty int
	ExecRedirectPenalty   int

	// NewPolicy constructs the BTB replacement policy for this run.
	NewPolicy func() btb.Policy
	// Hints supplies Thermometer temperature categories (may be nil). The
	// table is read-only once a run has used it: Run memoizes its
	// per-access column on the trace (see profile.HintTable.Column).
	Hints *profile.HintTable
	// NewPredictor constructs the direction predictor (nil → TAGE).
	NewPredictor func() bpred.Predictor

	// Limit-study switches (Fig 2).
	PerfectBTB    bool
	PerfectBP     bool
	PerfectICache bool

	// Prefetcher is an optional BTB prefetcher (Confluence/Shotgun/Twig).
	// Its fills go to the one-level BTB (or Shotgun's partitions), so it
	// cannot be combined with TwoLevelBTB: Run panics.
	Prefetcher Prefetcher
	// PrefetchDelay is the number of demand BTB accesses after which a
	// prefetch-issued fill becomes visible. It models the fill latency of
	// prefetched BTB entries relative to the run-ahead BPU: the BPU's
	// lookups lead the fetch/fill pipeline, so a prefetch issued now can
	// only satisfy lookups a couple of fetch groups later. Without it a
	// trace-driven prefetcher becomes a same-cycle oracle.
	PrefetchDelay int
	// ShotgunPartition statically splits the BTB by branch type as
	// Shotgun does (§2.2): a 60% partition for unconditional branches,
	// calls and returns, 40% for conditionals.
	ShotgunPartition bool
	// TwoLevelBTB, when non-nil, replaces the monolithic BTB with a
	// two-level organization (small fast L1 backed by a large L2); see
	// btb.TwoLevel. Mutually exclusive with ShotgunPartition and BTBSets,
	// and not supported with a Prefetcher (Run panics).
	TwoLevelBTB *TwoLevelBTBConfig

	// Latencies configures the memory hierarchy.
	Latencies cache.Latencies

	// DataStalls enables the synthetic backend load stream.
	DataStalls bool
	// DataFootprint spans the synthetic load address space (bytes).
	DataFootprint uint64
	// MLP divides load miss latency (memory-level parallelism the OoO
	// window extracts).
	MLP int

	// WarmupFrac is the fraction of the trace used to warm caches, BTB,
	// and predictors before statistics and cycles accumulate (standard
	// trace-simulation methodology; ChampSim warms similarly).
	WarmupFrac float64

	// Observer, when non-nil, attaches the telemetry subsystem to the run:
	// registry counters and histograms, the epoch time series, and the
	// structured event trace (see package telemetry). nil — the default —
	// disables all instrumentation at the cost of one predictable branch
	// per simulated block (BenchmarkObserverDisabled quantifies it).
	Observer *telemetry.Observer

	// Attribution, when non-nil, runs the recorder's miss-attribution and
	// replacement-regret audit (see package attribution): every BTB miss is
	// classified compulsory/capacity/conflict against Belady shadow models
	// and every replacement decision is scored against OPT's choice.
	// Requires a monolithic BTB (no ShotgunPartition or TwoLevelBTB). Its
	// heatmap samples on the Observer's epoch grid when one is attached.
	Attribution *attribution.Recorder

	// HintQual, when non-nil, runs the recorder's hint-quality audit (see
	// package attribution): every demand BTB access is scored against a
	// same-geometry Belady shadow to measure hint coverage, per-bucket
	// confusion against the profiled temperatures, and windowed temperature
	// drift. Requires a monolithic BTB (no ShotgunPartition or TwoLevelBTB).
	// Its drift windows close on the Observer's epoch grid when one is
	// attached; without an Observer the whole run is a single window. One
	// recorder may be attached through both fields: it runs both audits as
	// one consumer.
	HintQual *attribution.Recorder
}

// TwoLevelBTBConfig sizes the optional two-level BTB organization.
type TwoLevelBTBConfig struct {
	L1Entries, L1Ways int
	L2Entries, L2Ways int
	// BubbleCycles is the BPU stall on an L1-miss/L2-hit access.
	BubbleCycles int
}

// DefaultTwoLevelBTB returns a 1K+8K two-level organization comparable in
// total capacity to the Table 1 BTB.
func DefaultTwoLevelBTB() *TwoLevelBTBConfig {
	return &TwoLevelBTBConfig{L1Entries: 1024, L1Ways: 4, L2Entries: 8192, L2Ways: 4, BubbleCycles: 3}
}

// DefaultConfig returns the Table 1 configuration with an LRU BTB.
func DefaultConfig() Config {
	return Config{
		FetchWidth:            6,
		FTQInstrCap:           192,
		BTBEntries:            8192,
		BTBWays:               4,
		IBTBEntries:           4096,
		RASEntries:            32,
		DecodeRedirectPenalty: 10,
		ExecRedirectPenalty:   20,
		PrefetchDelay:         32,
		Latencies:             cache.DefaultLatencies(),
		DataStalls:            true,
		DataFootprint:         64 << 20,
		MLP:                   4,
		WarmupFrac:            0.25,
	}
}

// Table1 returns the simulation-parameter rows exactly as the paper's
// Table 1 groups them, for the table1 experiment.
func Table1() [][2]string {
	return [][2]string{
		{"CPU", "6-wide, 24-entry (192-instruction) FTQ, 60-entry Decode Queue, 352-entry Re-order Buffer, 128-entry Reservation Station"},
		{"Branch prediction units", "8192-entry 4-way BTB, 4096-entry IBTB, 32-entry RAS, 64KB TAGE"},
		{"Caches", "64B block: 32KB, 8-way L1I, 48KB, 12-way L1D, 512KB 8-way L2C, 2MB 16-way LLC"},
	}
}
