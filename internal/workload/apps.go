package workload

import (
	"fmt"

	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// The 13 data center applications of the paper (§2.1), modelled by branch
// footprint and code-footprint parameters chosen to reproduce the paper's
// per-application characterization:
//
//   - verilator: enormous generated code executed in long sweeps — the
//     L2iMPKI outlier of Fig 3 and the biggest BTB-miss victim;
//   - clang, wordpress, mediawiki: multi-megabyte footprints, high BTB
//     pressure (the large OPT speedups of Fig 1);
//   - python: comparatively small interpreter loop (smallest speedups);
//   - the rest in between.
//
// Footprints are in *static taken branches*; the BTB under test holds 8K
// entries, so apps range from ~1.5× to ~10× BTB capacity as the paper's
// applications do.
var apps = []AppSpec{
	{Name: "cassandra", Seed: 0xCA55A9D4A, HotBranches: 4000, WarmBranches: 8000, ColdBranches: 3000,
		Kernels: 22, LoopsPerPhase: 12, WarmCallRate: 0.07, ColdRate: 0.022, TakenBias: 0.60,
		IndirectFrac: 0.06, CodeFootprint: 1 << 21, MeanBlockLen: 4, Length: 400000},
	{Name: "clang", Seed: 0xC1A96000, HotBranches: 6200, WarmBranches: 16000, ColdBranches: 4700,
		Kernels: 30, LoopsPerPhase: 7, WarmCallRate: 0.09, ColdRate: 0.036, TakenBias: 0.62,
		IndirectFrac: 0.05, CodeFootprint: 5 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "drupal", Seed: 0xD909A1, HotBranches: 4700, WarmBranches: 10000, ColdBranches: 3600,
		Kernels: 24, LoopsPerPhase: 10, WarmCallRate: 0.08, ColdRate: 0.025, TakenBias: 0.60,
		IndirectFrac: 0.08, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "finagle-chirper", Seed: 0xF14A61EC, HotBranches: 3600, WarmBranches: 7000, ColdBranches: 2800,
		Kernels: 19, LoopsPerPhase: 13, WarmCallRate: 0.06, ColdRate: 0.018, TakenBias: 0.58,
		IndirectFrac: 0.07, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "finagle-http", Seed: 0xF14A61E8, HotBranches: 3800, WarmBranches: 7500, ColdBranches: 2900,
		Kernels: 20, LoopsPerPhase: 12, WarmCallRate: 0.065, ColdRate: 0.02, TakenBias: 0.58,
		IndirectFrac: 0.07, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "kafka", Seed: 0x4AF4A, HotBranches: 4000, WarmBranches: 8000, ColdBranches: 3000,
		Kernels: 22, LoopsPerPhase: 12, WarmCallRate: 0.065, ColdRate: 0.02, TakenBias: 0.60,
		IndirectFrac: 0.06, CodeFootprint: 2 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "mediawiki", Seed: 0x3ED1A714, HotBranches: 5100, WarmBranches: 12000, ColdBranches: 3900,
		Kernels: 25, LoopsPerPhase: 8, WarmCallRate: 0.085, ColdRate: 0.031, TakenBias: 0.60,
		IndirectFrac: 0.08, CodeFootprint: 4 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "mysql", Seed: 0x3350D1, HotBranches: 4600, WarmBranches: 9500, ColdBranches: 3500,
		Kernels: 24, LoopsPerPhase: 10, WarmCallRate: 0.075, ColdRate: 0.024, TakenBias: 0.61,
		IndirectFrac: 0.05, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "postgresql", Seed: 0x9057965, HotBranches: 4200, WarmBranches: 8500, ColdBranches: 3200,
		Kernels: 22, LoopsPerPhase: 11, WarmCallRate: 0.07, ColdRate: 0.021, TakenBias: 0.61,
		IndirectFrac: 0.05, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "python", Seed: 0x9974013, HotBranches: 2300, WarmBranches: 4500, ColdBranches: 1800,
		Kernels: 13, LoopsPerPhase: 20, WarmCallRate: 0.05, ColdRate: 0.011, TakenBias: 0.62,
		IndirectFrac: 0.09, CodeFootprint: 1 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "tomcat", Seed: 0x703CA7, HotBranches: 4900, WarmBranches: 10500, ColdBranches: 3700,
		Kernels: 25, LoopsPerPhase: 9, WarmCallRate: 0.08, ColdRate: 0.027, TakenBias: 0.60,
		IndirectFrac: 0.06, CodeFootprint: 3 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "verilator", Seed: 0x3E91147, HotBranches: 36000, WarmBranches: 6000, ColdBranches: 8000,
		Kernels: 6, LoopsPerPhase: 1, WarmCallRate: 0.16, ColdRate: 0.006, TakenBias: 0.64,
		IndirectFrac: 0.02, CodeFootprint: 9 << 20, MeanBlockLen: 4, Length: 400000},
	{Name: "wordpress", Seed: 0x36D99E55, HotBranches: 5800, WarmBranches: 14000, ColdBranches: 4400,
		Kernels: 28, LoopsPerPhase: 7, WarmCallRate: 0.09, ColdRate: 0.034, TakenBias: 0.60,
		IndirectFrac: 0.08, CodeFootprint: 4 << 20, MeanBlockLen: 4, Length: 400000},
}

// Apps returns the 13 data center application specs in figure order.
func Apps() []AppSpec {
	out := make([]AppSpec, len(apps))
	copy(out, apps)
	return out
}

// AppNames returns the application names in figure order.
func AppNames() []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// App looks up an application spec by name.
func App(name string) (AppSpec, bool) {
	for _, a := range apps {
		if a.Name == name {
			return a, true
		}
	}
	return AppSpec{}, false
}

// ScaleLength returns a copy of the spec with the trace length scaled by
// num/den (minimum 1000 records). Tests and quick experiments use shorter
// traces; figures use the full length.
func (s AppSpec) ScaleLength(num, den int) AppSpec {
	s.Length = s.Length * num / den
	if s.Length < 1000 {
		s.Length = 1000
	}
	return s
}

// --- CBP-5 and IPC-1 style trace suites (§4.1) ---

// CBP5Count is the number of traces in the CBP-5 suite (the paper uses all
// 663 championship traces).
const CBP5Count = 663

// IPC1Count is the number of traces in the IPC-1 suite.
const IPC1Count = 50

// suiteSpec derives a sweep spec. The suites intentionally cover a wide
// parameter space: most traces have branch working sets well under the BTB
// capacity (the paper finds 298 of 663 CBP-5 traces suffer only compulsory
// misses), while a tail of large-footprint traces reaches BTB MPKI >= 1.
func suiteSpec(suite string, i, length int) AppSpec {
	seed := xrand.Mix64(uint64(i)*2654435761 + uint64(len(suite)))
	r := xrand.New(seed)
	// Log-spaced footprint from ~150 to ~45000 static branches; the
	// distribution is skewed small so the bulk fits in the BTB.
	u := r.Float64()
	u = u * u // skew toward small
	foot := 150.0
	for k := 0; k < 24; k++ {
		foot *= 1.0 + 1.6*u/4
	}
	hot := int(foot * (0.4 + 0.3*r.Float64()))
	warm := int(foot * (0.2 + 0.2*r.Float64()))
	cold := int(foot) - hot - warm
	if cold < 16 {
		cold = 16
	}
	// Kernel size between ~50 and ~500 branches; a minority of traces are
	// sweep-style (1–2 loops per phase), the rest loop-heavy.
	kernelSize := 50 + r.Intn(450)
	kernels := hot / kernelSize
	if kernels < 1 {
		kernels = 1
	}
	if hot < kernels {
		hot = kernels
	}
	loops := 4 + r.Intn(16)
	if r.Bool(0.15) {
		loops = 1 + r.Intn(2) // sweep-style trace
	}
	return AppSpec{
		Name:          fmt.Sprintf("%s_%03d", suite, i),
		Seed:          seed,
		HotBranches:   hot,
		WarmBranches:  warm + 16,
		ColdBranches:  cold,
		Kernels:       kernels,
		LoopsPerPhase: loops,
		WarmCallRate:  0.03 + 0.07*r.Float64(),
		ColdRate:      0.004 + 0.014*r.Float64(),
		TakenBias:     0.5 + 0.2*r.Float64(),
		IndirectFrac:  0.1 * r.Float64(),
		CodeFootprint: uint64(1<<19) + r.Uint64n(1<<22),
		MeanBlockLen:  3 + r.Intn(3),
		Length:        length,
	}
}

// CBP5Spec returns the spec for CBP-5-style trace i in [0, CBP5Count).
func CBP5Spec(i int) AppSpec {
	if i < 0 || i >= CBP5Count {
		panic(fmt.Sprintf("workload: CBP5 index %d out of range", i))
	}
	return suiteSpec("cbp5", i, 150000)
}

// IPC1Spec returns the spec for IPC-1-style trace i in [0, IPC1Count).
func IPC1Spec(i int) AppSpec {
	if i < 0 || i >= IPC1Count {
		panic(fmt.Sprintf("workload: IPC1 index %d out of range", i))
	}
	return suiteSpec("ipc1", i, 150000)
}

// FootprintSummary describes a generated trace's working set; used by tests
// and by the experiment harness to sanity-check suite composition.
type FootprintSummary struct {
	Name                  string
	UniqueTaken           int
	DynamicTaken          uint64
	Instructions          uint64
	BTBMissesPerKiloInstr float64 // filled by callers that simulate
}

// Summarize computes footprint statistics for a trace.
func Summarize(tr *trace.Trace) FootprintSummary {
	return FootprintSummary{
		Name:         tr.Name,
		UniqueTaken:  tr.UniqueTakenPCs(),
		DynamicTaken: tr.TakenBranches(),
		Instructions: tr.Instructions(),
	}
}
