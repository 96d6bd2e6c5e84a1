package core

import (
	"reflect"
	"testing"

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
		"FetchWidth", "FTQInstrCap",
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

// TestRunEmptyTrace: a trace with no records simulates to an empty result.
func TestRunEmptyTrace(t *testing.T) {
	r := Run(&trace.Trace{Name: "empty"}, DefaultConfig())
	if r.Instructions != 0 || r.Cycles != 0 || r.DirLookups != 0 || r.InstrL1Misses != 0 || r.L2iMPKI != 0 {
		t.Fatalf("empty trace produced %+v", r)
	}
}
