package core

import (
	"testing"

	"thermometer/internal/belady"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

func TestStallAttributionConsistency(t *testing.T) {
	tr := smallTrace(t, "mysql")
	r := Run(tr, DefaultConfig())
	var byLevel uint64
	for _, v := range r.ICacheStallByLevel {
		byLevel += v
	}
	if byLevel != r.ICacheStall {
		t.Fatalf("per-level icache stalls %d != total %d", byLevel, r.ICacheStall)
	}
	// Issue cycles are what remains after stalls; must be positive and at
	// least instructions/width.
	issue := r.Cycles - r.RedirectStall - r.ICacheStall - r.DataStall
	if issue <= 0 || issue < r.Instructions/fetchWidth {
		t.Fatalf("issue cycles %d implausible (instr %d)", issue, r.Instructions)
	}
}

func TestInstrMissLevelsMonotone(t *testing.T) {
	tr := smallTrace(t, "mysql")
	r := Run(tr, DefaultConfig())
	if r.InstrL1Misses < r.InstrL2Misses || r.InstrL2Misses < r.InstrLLCMisses {
		t.Fatalf("instruction miss funnel inverted: L1 %d, L2 %d, LLC %d",
			r.InstrL1Misses, r.InstrL2Misses, r.InstrLLCMisses)
	}
}

func TestHintsChangeOnlyBTBBehaviour(t *testing.T) {
	// Running LRU with hints attached must be identical to LRU without:
	// hints only matter to the Thermometer policy.
	spec, _ := workload.App("kafka")
	tr := spec.ScaleLength(1, 8).Generate(0)
	a := Run(tr, DefaultConfig())
	cfg := DefaultConfig()
	ht, _, err := profileTraceForTest(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hints = ht
	b := Run(tr, cfg)
	if a.Cycles != b.Cycles || a.BTB.Misses != b.BTB.Misses {
		t.Fatalf("hints changed LRU behaviour: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// profileTraceForTest builds default hints for a test trace.
func profileTraceForTest(tr *trace.Trace) (*profile.HintTable, *belady.Result, error) {
	return profile.ProfileTrace(tr, 8192, 4, profile.DefaultConfig())
}
