package core

import (
	"reflect"
	"testing"

	"thermometer/internal/trace"
)

// TestConfigFieldsClassified sorts every Config field into the frontend
// pass's memo key or the policy side. A new field fails here until someone
// decides which it is: a frontend input left out of frontKey would let runs
// with different values share one memoized stream.
func TestConfigFieldsClassified(t *testing.T) {
	frontendKey := []string{
		"PerfectBP", "PerfectICache", "DataFootprint", "IBTBEntries", "RASEntries",
	}
	policySide := []string{
		"FTQInstrCap",
		"BTBEntries", "BTBWays", "BTBSets",
		"NewPolicy", "Hints", "PerfectBTB",
		"Prefetcher", "PrefetchDelay", "ShotgunPartition", "TwoLevelBTB",
		"WarmupFrac", "Observer", "Attribution", "HintQual",
	}

	class := make(map[string]string)
	for _, group := range []struct {
		name   string
		fields []string
	}{{"frontend key", frontendKey}, {"policy side", policySide}} {
		for _, f := range group.fields {
			if prev, dup := class[f]; dup {
				t.Errorf("%s is listed as both %s and %s", f, prev, group.name)
			}
			class[f] = group.name
		}
	}
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		if name := cfg.Field(i).Name; class[name] == "" {
			t.Errorf("Config.%s is unclassified: add it to frontKey (and keyOf) if the frontend pass reads it, else to policySide", name)
		}
	}
	for name := range class {
		if _, ok := cfg.FieldByName(name); !ok {
			t.Errorf("%s is classified but is not a Config field", name)
		}
	}

	// frontKey holds exactly the key fields, with their Config types.
	key := reflect.TypeOf(frontKey{})
	if key.NumField() != len(frontendKey) {
		t.Errorf("frontKey has %d fields, want the %d key fields %v", key.NumField(), len(frontendKey), frontendKey)
	}
	for _, name := range frontendKey {
		kf, ok := key.FieldByName(name)
		cf, _ := cfg.FieldByName(name)
		if !ok || kf.Type != cf.Type {
			t.Errorf("frontKey.%s missing or not of Config's type %v", name, cf.Type)
		}
	}
}

// TestRunEmptyTrace: a trace with no records simulates to an empty result.
func TestRunEmptyTrace(t *testing.T) {
	r := Run(&trace.Trace{Name: "empty"}, DefaultConfig())
	if r.Instructions != 0 || r.Cycles != 0 || r.DirLookups != 0 || r.InstrL1Misses != 0 || r.L2iMPKI != 0 {
		t.Fatalf("empty trace produced %+v", r)
	}
}

// TestDataStallSpill runs blocks as long as a record allows. The cold first
// block stalls for more data cycles than a frontRec holds, so its stall
// spills to the stream's side list, and Run must read it back at that block
// whether it falls in the measured region or in warm-up.
func TestDataStallSpill(t *testing.T) {
	recs := make([]trace.Record, 8)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x1000, Target: 0x2000, Type: trace.UncondDirect, Taken: true, BlockLen: 65535}
	}
	tr := &trace.Trace{Name: "spill", Records: recs}
	cfg := DefaultConfig()
	fs := frontendFor(tr, keyOf(&cfg))
	if fs.recs[0].dataStall != frontSpill || len(fs.spill) != 1 || fs.spill[0] != 70960 {
		t.Fatalf("first block's stall %d, spill list %v: want it spilled as [70960]", fs.recs[0].dataStall, fs.spill)
	}
	for _, c := range []struct {
		warmup float64
		want   uint64
	}{
		{0, 181432},   // the spilled stall, then the other seven blocks'
		{0.25, 75062}, // only the last six blocks' stalls
	} {
		cfg.WarmupFrac = c.warmup
		if got := Run(tr, cfg).DataStall; got != c.want {
			t.Errorf("WarmupFrac %v: DataStall = %d, want %d", c.warmup, got, c.want)
		}
	}
}
