package core

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

func smallTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	spec, ok := workload.App(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return spec.ScaleLength(1, 8).Generate(0)
}

func TestRunBasics(t *testing.T) {
	tr := smallTrace(t, "kafka")
	r := Run(tr, DefaultConfig())
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Fatal("empty result")
	}
	if ipc := r.IPC(); ipc <= 0.1 || ipc > 6 {
		t.Fatalf("IPC = %v out of plausible range", ipc)
	}
	if r.BTB.Accesses == 0 || r.BTB.Misses == 0 {
		t.Fatalf("BTB stats empty: %+v", r.BTB)
	}
	if r.BTBMPKI() <= 0 {
		t.Fatal("BTB MPKI zero")
	}
	if r.DirLookups == 0 {
		t.Fatal("no direction lookups")
	}
	stalls := r.RedirectStall + r.ICacheStall + r.DataStall
	if stalls >= r.Cycles {
		t.Fatalf("stalls %d >= cycles %d", stalls, r.Cycles)
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := smallTrace(t, "kafka")
	a := Run(tr, DefaultConfig())
	b := Run(tr, DefaultConfig())
	if a.Cycles != b.Cycles || a.BTB != b.BTB {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestPerfectModesAreFaster(t *testing.T) {
	tr := smallTrace(t, "mediawiki")
	base := Run(tr, DefaultConfig())
	for _, mut := range []struct {
		name string
		f    func(*Config)
	}{
		{"PerfectBTB", func(c *Config) { c.PerfectBTB = true }},
		{"PerfectBP", func(c *Config) { c.PerfectBP = true }},
		{"PerfectICache", func(c *Config) { c.PerfectICache = true }},
	} {
		cfg := DefaultConfig()
		mut.f(&cfg)
		r := Run(tr, cfg)
		if sp := Speedup(base, r); sp <= 0 {
			t.Errorf("%s speedup = %v, want > 0", mut.name, sp)
		}
	}
}

func TestPerfectBTBHasNoBTBMisses(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.PerfectBTB = true
	r := Run(tr, cfg)
	if r.BTB.Misses != 0 || r.BTBMissRedirects != 0 {
		t.Fatalf("perfect BTB missed: %+v", r.BTB)
	}
}

func TestPerfectBPHasNoMispredicts(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.PerfectBP = true
	r := Run(tr, cfg)
	if r.DirMispredicts != 0 {
		t.Fatalf("perfect BP mispredicted %d times", r.DirMispredicts)
	}
}

func TestPerfectICacheHasNoICacheStall(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.PerfectICache = true
	r := Run(tr, cfg)
	if r.ICacheStall != 0 {
		t.Fatalf("perfect I-cache stalled %d cycles", r.ICacheStall)
	}
}

func TestOPTBeatsLRUInTiming(t *testing.T) {
	tr := smallTrace(t, "tomcat")
	lru := Run(tr, DefaultConfig())
	cfg := DefaultConfig()
	cfg.NewPolicy = func() btb.Policy { return policy.NewOPT() }
	opt := Run(tr, cfg)
	if opt.BTB.Misses >= lru.BTB.Misses {
		t.Fatalf("OPT misses %d >= LRU %d", opt.BTB.Misses, lru.BTB.Misses)
	}
	if Speedup(lru, opt) <= 0 {
		t.Fatal("OPT not faster than LRU")
	}
}

func TestThermometerBetweenLRUAndOPT(t *testing.T) {
	spec, _ := workload.App("tomcat")
	tr := spec.ScaleLength(1, 4).Generate(0)
	ht, _, err := profile.ProfileTrace(tr, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lru := Run(tr, DefaultConfig())
	cfgT := DefaultConfig()
	cfgT.NewPolicy = func() btb.Policy { return policy.NewThermometer() }
	cfgT.Hints = ht
	therm := Run(tr, cfgT)
	cfgO := DefaultConfig()
	cfgO.NewPolicy = func() btb.Policy { return policy.NewOPT() }
	opt := Run(tr, cfgO)

	st, so := Speedup(lru, therm), Speedup(lru, opt)
	if st <= 0 {
		t.Fatalf("Thermometer speedup = %v, want > 0", st)
	}
	if st >= so {
		t.Fatalf("Thermometer %v >= OPT %v", st, so)
	}
	if st/so < 0.3 {
		t.Fatalf("Thermometer/OPT speedup ratio = %v, want > 0.3", st/so)
	}
	// Coverage stats flow through Result.Policy.
	th, ok := therm.Policy.(*policy.Thermometer)
	if !ok {
		t.Fatal("policy not Thermometer")
	}
	if c := th.Coverage(); c <= 0 || c > 1 {
		t.Fatalf("coverage = %v", c)
	}
}

func TestBiggerBTBFewerMisses(t *testing.T) {
	tr := smallTrace(t, "wordpress")
	small := DefaultConfig()
	small.BTBEntries = 2048
	big := DefaultConfig()
	big.BTBEntries = 32768
	rs, rb := Run(tr, small), Run(tr, big)
	if rb.BTB.Misses >= rs.BTB.Misses {
		t.Fatalf("32K-entry misses %d >= 2K-entry %d", rb.BTB.Misses, rs.BTB.Misses)
	}
	if rb.IPC() <= rs.IPC() {
		t.Fatalf("bigger BTB slower: %v <= %v", rb.IPC(), rs.IPC())
	}
}

func TestBTBSetsOverride(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.BTBSets = 1994 // the paper's 7979-entry configuration
	r := Run(tr, cfg)
	if r.Cycles == 0 {
		t.Fatal("no result")
	}
}

func TestShotgunPartition(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.ShotgunPartition = true
	r := Run(tr, cfg)
	if r.BTB.Accesses == 0 {
		t.Fatal("partitioned BTB unused")
	}
	// Static partitioning should not beat the unified BTB (§2.2).
	uni := Run(tr, DefaultConfig())
	if r.BTB.Misses < uni.BTB.Misses {
		t.Logf("note: partitioned misses %d < unified %d (acceptable but unexpected)",
			r.BTB.Misses, uni.BTB.Misses)
	}
}

func TestFTQSizeMonotonicOnStallHeavyApp(t *testing.T) {
	tr := smallTrace(t, "verilator")
	prev := uint64(0)
	for _, ftq := range []int{48, 192, 384} {
		cfg := DefaultConfig()
		cfg.FTQInstrCap = ftq
		r := Run(tr, cfg)
		if prev != 0 && r.Cycles > prev+prev/50 {
			t.Fatalf("FTQ %d made things >2%% slower: %d vs %d", ftq, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

func TestWarmupReducesColdMisses(t *testing.T) {
	tr := smallTrace(t, "kafka")
	warm := DefaultConfig()
	cold := DefaultConfig()
	cold.WarmupFrac = 0
	rw, rc := Run(tr, warm), Run(tr, cold)
	// Without warmup, compulsory misses count: MPKI must be higher.
	if rc.BTBMPKI() <= rw.BTBMPKI() {
		t.Fatalf("no-warmup MPKI %v <= warmup MPKI %v", rc.BTBMPKI(), rw.BTBMPKI())
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	if rows[0][0] != "CPU" {
		t.Fatal("row order")
	}
}

func TestBuildMetaAndNextUse(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{
		{PC: 0x100, Target: 0x200, Taken: true, Type: trace.UncondDirect},
		{PC: 0x130, Target: 0x300, Taken: true, Type: trace.UncondDirect},
		{PC: 0x100, Target: 0x200, Taken: true, Type: trace.UncondDirect},
	}}
	m := BuildMeta(tr.AccessStream())
	if _, sites := m.ByBlock(0x100 >> 6); len(sites) != 2 {
		t.Fatalf("block sites = %d, want 2 (0x100 and 0x130 share a block)", len(sites))
	}
	if nu := m.NextUseAfter(0x100, 0); nu != 2 {
		t.Fatalf("next use = %d, want 2", nu)
	}
	if nu := m.NextUseAfter(0x100, 2); nu != trace.NoNextUse {
		t.Fatalf("final next use = %d, want NoNextUse", nu)
	}
	if nu := m.NextUseAfter(0xdead, 0); nu != trace.NoNextUse {
		t.Fatal("unknown PC next use")
	}
}

func TestSpeedupMath(t *testing.T) {
	a := &Result{Instructions: 1000, Cycles: 1000}
	b := &Result{Instructions: 1000, Cycles: 800}
	if got := Speedup(a, b); got < 0.2499 || got > 0.2501 {
		t.Fatalf("speedup = %v, want 0.25", got)
	}
	if Speedup(&Result{}, b) != 0 {
		t.Fatal("zero-base speedup")
	}
}

func TestTwoLevelBTBInSim(t *testing.T) {
	tr := smallTrace(t, "tomcat")
	cfg := DefaultConfig()
	cfg.TwoLevelBTB = DefaultTwoLevelBTB()
	r := Run(tr, cfg)
	if r.BTB.Accesses == 0 || r.BTB.Hits == 0 {
		t.Fatalf("two-level stats empty: %+v", r.BTB)
	}
	// A 1K+8K two-level organization should miss less than a 1K-only BTB
	// and more than (or close to) a monolithic 8K BTB.
	small := DefaultConfig()
	small.BTBEntries = 1024
	rs := Run(tr, small)
	if r.BTB.Misses >= rs.BTB.Misses {
		t.Fatalf("two-level misses %d >= 1K-only %d", r.BTB.Misses, rs.BTB.Misses)
	}
	mono := Run(tr, DefaultConfig())
	if r.BTB.Misses*2 < mono.BTB.Misses {
		t.Fatalf("two-level misses %d implausibly below monolithic 8K %d", r.BTB.Misses, mono.BTB.Misses)
	}
}
