package core

import (
	"testing"

	"thermometer/internal/attribution"
	"thermometer/internal/btb"
	"thermometer/internal/hintqual"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
)

// hintedConfig builds a Thermometer run whose hint table is profiled from
// the given training trace at the run's geometry.
func hintedConfig(t *testing.T, train *trace.Trace) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NewPolicy = func() btb.Policy { return policy.NewThermometer() }
	ht, _, err := profile.ProfileTrace(train, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hints = ht
	return cfg
}

// Like the observer and attribution layers, the hint-quality audit must be a
// pure read-side tap: attaching it cannot change a single architectural or
// timing statistic — alone, alongside an observer, or alongside both the
// observer and the attribution recorder.
func TestHintQualDoesNotPerturbResult(t *testing.T) {
	tr := smallTrace(t, "kafka")
	base := Run(tr, hintedConfig(t, tr))

	variants := map[string]func(*Config){
		"bare": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
		},
		"with-attribution": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Attribution = attribution.New(attribution.Options{})
		},
		"with-observer": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: 5000})
		},
		"with-observer-and-attribution": func(cfg *Config) {
			cfg.HintQual = hintqual.New(hintqual.Options{})
			cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: 5000})
			cfg.Attribution = attribution.New(attribution.Options{})
		},
	}
	for name, mutate := range variants {
		cfg := hintedConfig(t, tr)
		mutate(&cfg)
		r := Run(tr, cfg)
		if r.Cycles != base.Cycles || r.Instructions != base.Instructions {
			t.Fatalf("%s: audit perturbed timing: %d/%d cycles, %d/%d instructions",
				name, r.Cycles, base.Cycles, r.Instructions, base.Instructions)
		}
		if r.BTB != base.BTB {
			t.Fatalf("%s: audit perturbed BTB stats:\n with    %+v\n without %+v", name, r.BTB, base.BTB)
		}
		if r.RedirectStall != base.RedirectStall || r.ICacheStall != base.ICacheStall || r.DataStall != base.DataStall {
			t.Fatalf("%s: audit perturbed stall attribution", name)
		}
		if r.DirMispredicts != base.DirMispredicts {
			t.Fatalf("%s: audit perturbed direction prediction", name)
		}
	}
}

// The recorder's demand-access count must agree exactly with the BTB's own
// post-warmup demand statistics (the probe taps the same stream), and an
// observerless run must still close one drift window over the measured
// region.
func TestHintQualAccountingMatchesBTB(t *testing.T) {
	tr := smallTrace(t, "mediawiki")
	cfg := hintedConfig(t, tr)
	hq := attribution.New(attribution.Options{})
	cfg.HintQual = hq
	r := Run(tr, cfg)

	s := hq.HintSummary()
	if s.Accesses != r.BTB.Accesses {
		t.Fatalf("audit scored %d accesses, BTB counted %d", s.Accesses, r.BTB.Accesses)
	}
	if s.Branches == 0 || s.CoverageAccesses == 0 {
		t.Fatalf("empty audit: %+v", s)
	}
	if s.Windows != 1 {
		t.Fatalf("observerless run closed %d windows, want 1", s.Windows)
	}

	// With an observer, windows close on the epoch grid and the summary
	// counters land in the registry.
	cfg = hintedConfig(t, tr)
	hq = attribution.New(attribution.Options{})
	cfg.HintQual = hq
	obs := telemetry.New(telemetry.Options{EpochInterval: 5000})
	cfg.Observer = obs
	Run(tr, cfg)
	if s := hq.HintSummary(); s.Windows < 2 {
		t.Fatalf("epoch-gridded run closed %d windows, want >= 2", s.Windows)
	}
	snap := obs.Metrics.Snapshot()
	if snap.Counters["hintqual_accesses"] == 0 {
		t.Fatal("hintqual_accesses counter not published")
	}
	if _, ok := snap.Counters["hintqual_drift_epochs"]; !ok {
		t.Fatal("hintqual_drift_epochs counter not published")
	}
}

// A same-input profile must audit as substantially more accurate than a
// stale (heavily truncated) profile of the same workload — the measurement
// the cross-input drift story rests on.
func TestHintQualRanksProfileFreshness(t *testing.T) {
	tr := smallTrace(t, "kafka")
	audit := func(train *trace.Trace) attribution.HintSummary {
		cfg := hintedConfig(t, train)
		hq := attribution.New(attribution.Options{})
		cfg.HintQual = hq
		Run(tr, cfg)
		return hq.HintSummary()
	}
	fresh := audit(tr)
	stale := audit(truncateTrace(tr, 10))
	if fresh.AccuracyBranches <= stale.AccuracyBranches {
		t.Fatalf("same-input profile accuracy %.3f not above stale-profile accuracy %.3f",
			fresh.AccuracyBranches, stale.AccuracyBranches)
	}
	if fresh.CoverageBranches <= stale.CoverageBranches {
		t.Fatalf("same-input coverage %.3f not above stale coverage %.3f",
			fresh.CoverageBranches, stale.CoverageBranches)
	}
}

// truncateTrace keeps the first 1/div of a trace's records, modeling an
// undertrained profiling run.
func truncateTrace(tr *trace.Trace, div int) *trace.Trace {
	n := len(tr.Records) / div
	return &trace.Trace{Name: tr.Name + "-stale", Records: tr.Records[:n]}
}

// A recorder attached through both Config fields is one entry on the probe
// list, bound to both audits, so each probe takes its lock once; two
// recorders are one entry each.
func TestSharedRecorderIsOneConsumer(t *testing.T) {
	shared := attribution.New(attribution.Options{})
	for _, tc := range []struct {
		att, hq *attribution.Recorder
		want    int
	}{
		{shared, shared, 1},
		{attribution.New(attribution.Options{}), attribution.New(attribution.Options{}), 2},
	} {
		cfg := DefaultConfig()
		cfg.Attribution, cfg.HintQual = tc.att, tc.hq
		pol := policy.NewLRU()
		b := btb.New(64, 4, pol)
		c := attachConsumers(&cfg, &Result{Policy: pol}, nil, &btbBank{main: b}, nil, nil)
		if len(c.list) != tc.want {
			t.Fatalf("%d consumers, want %d", len(c.list), tc.want)
		}
		for i := 0; i < 100; i++ {
			b.Access(&btb.Request{PC: uint64(i % 40), NextUse: i + 40})
		}
		// Hits and classified misses come from the regret audit alone, the
		// access-weighted confusion matrix from the hint-quality audit alone.
		if _, hits, misses, _ := tc.att.Counts(); hits+misses.Total != 100 {
			t.Fatalf("regret audit scored %d hits and misses, want 100", hits+misses.Total)
		}
		var scored uint64
		for _, row := range tc.hq.HintReport(1).ConfusionAccesses {
			for _, n := range row {
				scored += n
			}
		}
		if scored != 100 {
			t.Fatalf("hint-quality audit scored %d accesses, want 100", scored)
		}
	}
}
