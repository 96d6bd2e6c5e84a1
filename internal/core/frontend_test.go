package core

import (
	"reflect"
	"sync"
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/trace"
)

// TestConfigFieldsClassified sorts every Config field into the frontend
// pass's memo key, the one unkeyed frontend input, or the policy side. A new
// field fails here until someone decides which it is: a frontend input left
// out of frontKey would let runs with different values share one memoized
// stream.
func TestConfigFieldsClassified(t *testing.T) {
	frontendKey := []string{
		"PerfectBP", "PerfectICache", "DataStalls", "DataFootprint", "MLP",
		"Latencies", "IBTBEntries", "RASEntries",
	}
	// NewPredictor feeds the pass but is a func, so it cannot be a key: a
	// run that sets it builds its own stream.
	frontendUnkeyed := []string{"NewPredictor"}
	policySide := []string{
		"FetchWidth", "FTQInstrCap", "DecodeQueue", "ROB",
		"BTBEntries", "BTBWays", "BTBSets",
		"DecodeRedirectPenalty", "ExecRedirectPenalty",
		"NewPolicy", "Hints", "PerfectBTB",
		"Prefetcher", "PrefetchDelay", "ShotgunPartition", "TwoLevelBTB",
		"WarmupFrac", "Observer", "Attribution", "HintQual",
	}

	class := make(map[string]string)
	for _, group := range []struct {
		name   string
		fields []string
	}{{"frontend key", frontendKey}, {"unkeyed frontend", frontendUnkeyed}, {"policy side", policySide}} {
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

// TestRunConcurrentOnFreshTrace runs core.Run from several goroutines on
// one trace whose frontend streams are not built yet, under several
// policies and two memo keys, and checks every result against a serial run
// on a separate copy of the trace.
func TestRunConcurrentOnFreshTrace(t *testing.T) {
	base := smallTrace(t, "kafka")
	policies := []func() btb.Policy{
		func() btb.Policy { return policy.NewLRU() },
		func() btb.Policy { return policy.NewSRRIP() },
		func() btb.Policy { return policy.NewGHRP() },
		func() btb.Policy { return policy.NewOPT() },
	}
	configs := make([]Config, 0, 2*len(policies))
	for _, perfectICache := range []bool{false, true} {
		for _, p := range policies {
			cfg := DefaultConfig()
			cfg.NewPolicy = p
			cfg.PerfectICache = perfectICache
			configs = append(configs, cfg)
		}
	}

	fresh := func() *trace.Trace { return &trace.Trace{Name: base.Name, Records: base.Records} }
	serialTrace := fresh()
	want := make([]Result, len(configs))
	for i, cfg := range configs {
		want[i] = *Run(serialTrace, cfg)
	}

	shared := fresh()
	got := make([]Result, 3*len(configs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = *Run(shared, configs[i%len(configs)])
		}(i)
	}
	wg.Wait()
	for i := range got {
		g, w := got[i], want[i%len(configs)]
		g.Policy, w.Policy = nil, nil
		if g != w {
			t.Errorf("concurrent run %d (config %d) diverged:\n got  %+v\n want %+v", i, i%len(configs), g, w)
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
