package core_test

import (
	"fmt"
	"sync"
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/prefetch"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
	"thermometer/internal/xrand"
)

func appTrace(t *testing.T, name string, input int) *trace.Trace {
	t.Helper()
	spec, ok := workload.App(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return spec.ScaleLength(1, 8).Generate(input)
}

// refMeta is the map-of-slices layout TraceMeta's flat arrays replaced:
// each block's sites in first-access order, each site's last target, and
// each PC's ascending access positions.
type refMeta struct {
	sites     map[uint64]*core.BranchSite
	byBlock   map[uint64][]uint64 // block → PCs in first-access order
	positions map[uint64][]int
}

func buildRefMeta(acc []trace.Access) *refMeta {
	r := &refMeta{
		sites:     make(map[uint64]*core.BranchSite),
		byBlock:   make(map[uint64][]uint64),
		positions: make(map[uint64][]int),
	}
	for i, a := range acc {
		s := r.sites[a.PC]
		if s == nil {
			s = &core.BranchSite{PC: a.PC, Type: a.Type}
			r.sites[a.PC] = s
			r.byBlock[a.PC>>6] = append(r.byBlock[a.PC>>6], a.PC)
		}
		s.Target = a.Target
		r.positions[a.PC] = append(r.positions[a.PC], i)
	}
	return r
}

// nextUseAfter scans pc's positions linearly.
func (r *refMeta) nextUseAfter(pc uint64, i int) int {
	for _, p := range r.positions[pc] {
		if p > i {
			return p
		}
	}
	return trace.NoNextUse
}

// TestTraceMetaMatchesReference checks the flat layout against the naive
// one on an app trace: every block's sites and their order (Confluence's
// and Shotgun's degree cutoffs depend on it), last targets, dense IDs,
// positions, and NextUseAfter at random indices. Core prices only the
// fills that can install, so the goldens exercise NextUseAfter little.
// The metadata under test is the trace's memoized copy, which every later
// MetaFor call must return.
func TestTraceMetaMatchesReference(t *testing.T) {
	tr := appTrace(t, "verilator", 0)
	acc := tr.AccessStream()
	ref := buildRefMeta(acc)
	m := core.MetaFor(tr)
	if core.MetaFor(tr) != m {
		t.Fatal("MetaFor built the trace's metadata twice")
	}

	if m.NumSites() != len(ref.sites) {
		t.Fatalf("NumSites = %d, want %d", m.NumSites(), len(ref.sites))
	}
	idSeen := make([]bool, m.NumSites())
	for blk, pcs := range ref.byBlock {
		first, sites := m.ByBlock(blk)
		if len(sites) != len(pcs) {
			t.Fatalf("block %#x: %d sites, want %d", blk, len(sites), len(pcs))
		}
		for k, pc := range pcs {
			if sites[k] != *ref.sites[pc] {
				t.Fatalf("block %#x site %d = %+v, want %+v", blk, k, sites[k], *ref.sites[pc])
			}
			id, ok := m.ID(pc)
			if !ok || id != first+k || idSeen[id] {
				t.Fatalf("block %#x site %d: ID(%#x) = %d, %v; want unique %d", blk, k, pc, id, ok, first+k)
			}
			idSeen[id] = true
		}
	}
	if _, sites := m.ByBlock(1 << 60); len(sites) != 0 {
		t.Fatalf("block with no branches has %d sites", len(sites))
	}
	for pc, want := range ref.positions {
		got := m.Positions(pc)
		if len(got) != len(want) {
			t.Fatalf("Positions(%#x) has %d entries, want %d", pc, len(got), len(want))
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("Positions(%#x)[%d] = %d, want %d", pc, k, got[k], want[k])
			}
		}
	}

	rng := xrand.New(18)
	for n := 0; n < 20000; n++ {
		pc := acc[rng.Intn(len(acc))].PC
		if n%16 == 0 {
			pc = 1<<60 | rng.Uint64n(1<<20) // not a branch of the trace
		}
		i := rng.Intn(len(acc)+2) - 1
		if got, want := m.NextUseAfter(pc, i), ref.nextUseAfter(pc, i); got != want {
			t.Fatalf("NextUseAfter(%#x, %d) = %d, want %d", pc, i, got, want)
		}
	}
}

// TestPrefetcherRejectsTwoLevelBTB: prefetch fills go to one BTB, so a
// two-level organization must fail loudly rather than corrupt its L1.
func TestPrefetcherRejectsTwoLevelBTB(t *testing.T) {
	tr := appTrace(t, "kafka", 0)
	cfg := core.DefaultConfig()
	cfg.TwoLevelBTB = core.DefaultTwoLevelBTB()
	cfg.Prefetcher = prefetch.NewConfluence(core.MetaFor(tr))
	const want = "core: a Prefetcher requires a one-level BTB (no TwoLevelBTB)"
	defer func() {
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("Run panicked with %q, want %q", got, want)
		}
	}()
	core.Run(tr, cfg)
}

// TestRunConcurrentOnFreshTrace runs core.Run from several goroutines on
// one trace whose frontend streams and prefetcher metadata are not built
// yet, under several policies, two frontend memo keys and three
// prefetchers, and checks every result against a serial run on a separate
// copy of the trace. Each run builds its own prefetcher from the trace it
// runs on, so the goroutines race to build the metadata memo.
func TestRunConcurrentOnFreshTrace(t *testing.T) {
	base := appTrace(t, "kafka", 0)
	// Twig holds no per-run state; one trained table serves every run.
	twig := prefetch.TrainTwig(appTrace(t, "kafka", 1), prefetch.TwigConfig{})
	type runCase struct {
		cfg core.Config
		pf  func(*trace.Trace) core.Prefetcher // nil: no prefetcher
	}
	policies := []func() btb.Policy{
		func() btb.Policy { return policy.NewLRU() },
		func() btb.Policy { return policy.NewSRRIP() },
		func() btb.Policy { return policy.NewGHRP() },
		func() btb.Policy { return policy.NewOPT() },
	}
	var cases []runCase
	for _, perfectICache := range []bool{false, true} {
		for _, p := range policies {
			cfg := core.DefaultConfig()
			cfg.NewPolicy = p
			cfg.PerfectICache = perfectICache
			cases = append(cases, runCase{cfg: cfg})
		}
	}
	prefetchers := []func(*trace.Trace) core.Prefetcher{
		func(tr *trace.Trace) core.Prefetcher { return prefetch.NewConfluence(core.MetaFor(tr)) },
		func(tr *trace.Trace) core.Prefetcher { return prefetch.NewShotgun(core.MetaFor(tr)) },
		func(*trace.Trace) core.Prefetcher { return twig },
	}
	for k, pf := range prefetchers {
		for _, p := range policies[2:] {
			cfg := core.DefaultConfig()
			cfg.NewPolicy = p
			cfg.ShotgunPartition = k == 1
			cases = append(cases, runCase{cfg: cfg, pf: pf})
		}
	}
	run := func(tr *trace.Trace, c runCase) core.Result {
		cfg := c.cfg
		if c.pf != nil {
			cfg.Prefetcher = c.pf(tr)
		}
		r := *core.Run(tr, cfg)
		r.Policy = nil
		return r
	}

	fresh := func() *trace.Trace { return &trace.Trace{Name: base.Name, Records: base.Records} }
	serialTrace := fresh()
	want := make([]core.Result, len(cases))
	for i, c := range cases {
		want[i] = run(serialTrace, c)
	}

	shared := fresh()
	got := make([]core.Result, 3*len(cases))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(shared, cases[i%len(cases)])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if g, w := got[i], want[i%len(cases)]; g != w {
			t.Errorf("concurrent run %d (case %d) diverged:\n got  %+v\n want %+v", i, i%len(cases), g, w)
		}
	}
}
