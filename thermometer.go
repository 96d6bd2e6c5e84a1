// Package thermometer is a Go reproduction of "Thermometer: Profile-Guided
// BTB Replacement for Data Center Applications" (Song et al., ISCA 2022).
//
// It provides, as one library:
//
//   - a branch-trace model and binary trace format (the stand-in for the
//     Intel PT captures the paper profiles);
//   - synthetic workload generators for the paper's 13 data center
//     applications and the CBP-5 / IPC-1 trace suites;
//   - the Thermometer offline profiler: Belady-optimal BTB simulation →
//     per-branch hit-to-taken "temperature" → 2-bit hint tables;
//   - BTB replacement policies: LRU, SRRIP, GHRP, Hawkeye, Belady OPT, and
//     Thermometer itself (Algorithm 1 of the paper);
//   - a decoupled-frontend (FDIP) timing simulator with TAGE direction
//     prediction, IBTB, RAS, a four-level cache hierarchy, and the
//     Confluence/Shotgun/Twig BTB prefetchers;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// This file is the public facade: it re-exports the stable API surface via
// type aliases and thin wrappers so that downstream users never import
// internal packages. The quickstart:
//
//	spec, _ := thermometer.App("kafka")
//	train := spec.Generate(0)
//	hints, _, _ := thermometer.Profile(train, 8192, 4)
//
//	test := spec.Generate(1)
//	base := thermometer.DefaultConfig()
//	cfg := thermometer.DefaultConfig()
//	cfg.NewPolicy = thermometer.NewThermometerPolicy
//	cfg.Hints = hints
//
//	lru := thermometer.Simulate(test, base)
//	therm := thermometer.Simulate(test, cfg)
//	fmt.Printf("speedup: %.2f%%\n", 100*thermometer.Speedup(lru, therm))
package thermometer

import (
	"io"

	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/prefetch"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// --- traces ---

// Trace is an in-memory branch trace (see internal/trace for the model).
type Trace = trace.Trace

// Record is one dynamic branch record.
type Record = trace.Record

// BranchType classifies a branch record.
type BranchType = trace.BranchType

// Branch types.
const (
	CondDirect   = trace.CondDirect
	UncondDirect = trace.UncondDirect
	Call         = trace.Call
	Return       = trace.Return
	IndirectJump = trace.IndirectJump
	IndirectCall = trace.IndirectCall
)

// ReadTrace parses a binary trace file.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace serializes a trace to the binary format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// --- workloads ---

// AppSpec parameterizes one synthetic data center application.
type AppSpec = workload.AppSpec

// Apps returns the 13 data center application models in the paper's figure
// order.
func Apps() []AppSpec { return workload.Apps() }

// AppNames returns the 13 application names.
func AppNames() []string { return workload.AppNames() }

// App looks up an application model by name.
func App(name string) (AppSpec, bool) { return workload.App(name) }

// CBP5Count and IPC1Count are the sizes of the championship-style suites.
const (
	CBP5Count = workload.CBP5Count
	IPC1Count = workload.IPC1Count
)

// CBP5Trace generates CBP-5-style trace i.
func CBP5Trace(i int) *Trace { return workload.CBP5Spec(i).Generate(0) }

// IPC1Trace generates IPC-1-style trace i.
func IPC1Trace(i int) *Trace { return workload.IPC1Spec(i).Generate(0) }

// --- profiling (the paper's offline steps) ---

// HintTable maps branch PCs to temperature categories.
type HintTable = profile.HintTable

// ProfileConfig controls temperature classification.
type ProfileConfig = profile.Config

// DefaultProfileConfig returns the paper's 3-category (50%/80%) setup.
func DefaultProfileConfig() ProfileConfig { return profile.DefaultConfig() }

// BeladyResult is the raw output of the optimal-policy simulation.
type BeladyResult = belady.Result

// Profile runs the full offline pipeline on a trace for a BTB geometry:
// Belady-optimal simulation, temperature computation, hint-table build.
func Profile(t *Trace, btbEntries, btbWays int) (*HintTable, *BeladyResult, error) {
	return profile.ProfileTrace(t, btbEntries, btbWays, profile.DefaultConfig())
}

// ProfileWithConfig is Profile with a custom classification config.
func ProfileWithConfig(t *Trace, btbEntries, btbWays int, cfg ProfileConfig) (*HintTable, *BeladyResult, error) {
	return profile.ProfileTrace(t, btbEntries, btbWays, cfg)
}

// ReadHints parses a hint file written by HintTable.Write.
func ReadHints(r io.Reader) (*HintTable, error) { return profile.ReadHints(r) }

// --- replacement policies ---

// Policy is the BTB replacement-policy interface.
type Policy = btb.Policy

// Policy constructors (each returns a fresh instance; pass them as
// Config.NewPolicy factories).
func NewLRUPolicy() Policy         { return policy.NewLRU() }
func NewSRRIPPolicy() Policy       { return policy.NewSRRIP() }
func NewGHRPPolicy() Policy        { return policy.NewGHRP() }
func NewHawkeyePolicy() Policy     { return policy.NewHawkeye() }
func NewOPTPolicy() Policy         { return policy.NewOPT() }
func NewThermometerPolicy() Policy { return policy.NewThermometer() }

// ThermometerPolicy is the concrete Thermometer policy type (exposes
// Coverage statistics).
type ThermometerPolicy = policy.Thermometer

// --- timing simulation ---

// Config parameterizes a timing simulation (Table 1 defaults via
// DefaultConfig).
type Config = core.Config

// SimResult reports a timing simulation.
type SimResult = core.Result

// DefaultConfig returns the paper's Table 1 configuration with LRU
// replacement.
func DefaultConfig() Config { return core.DefaultConfig() }

// TwoLevelBTBConfig sizes the optional two-level BTB organization
// (Config.TwoLevelBTB).
type TwoLevelBTBConfig = core.TwoLevelBTBConfig

// DefaultTwoLevelBTB returns a 1K+8K two-level BTB configuration.
func DefaultTwoLevelBTB() *TwoLevelBTBConfig { return core.DefaultTwoLevelBTB() }

// Simulate runs the FDIP timing model over a trace.
func Simulate(t *Trace, cfg Config) *SimResult { return core.Run(t, cfg) }

// Speedup returns r's IPC improvement over base as a fraction.
func Speedup(base, r *SimResult) float64 { return core.Speedup(base, r) }

// --- BTB prefetchers ---

// Prefetcher is a BTB prefetcher plugged into Config.Prefetcher.
type Prefetcher = core.Prefetcher

// TraceMeta is the static branch metadata Confluence and Shotgun index.
type TraceMeta = core.TraceMeta

// BuildMeta returns a trace's prefetcher metadata. It is built once per
// trace and shared read-only with Simulate's own prefetch path.
func BuildMeta(t *Trace) *TraceMeta { return core.MetaFor(t) }

// NewConfluence builds the Confluence-style BTB prefetcher.
func NewConfluence(meta *TraceMeta) Prefetcher { return prefetch.NewConfluence(meta) }

// NewShotgun builds the Shotgun-style BTB prefetcher (combine with
// Config.ShotgunPartition).
func NewShotgun(meta *TraceMeta) Prefetcher { return prefetch.NewShotgun(meta) }

// TwigConfig tunes Twig training.
type TwigConfig = prefetch.TwigConfig

// TrainTwig trains the profile-guided Twig BTB prefetcher on a trace.
func TrainTwig(t *Trace, cfg TwigConfig) Prefetcher { return prefetch.TrainTwig(t, cfg) }
