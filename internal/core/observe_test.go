package core

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

func observedConfig(opts telemetry.Options) (Config, *telemetry.Observer) {
	cfg := DefaultConfig()
	obs := telemetry.New(opts)
	cfg.Observer = obs
	return cfg, obs
}

// The observer must be a pure read-side tap: attaching it cannot change a
// single architectural or timing statistic of the run.
func TestObserverDoesNotPerturbResult(t *testing.T) {
	tr := smallTrace(t, "kafka")
	base := Run(tr, DefaultConfig())

	cfg, _ := observedConfig(telemetry.Options{EpochInterval: 5000, EventCap: 1 << 12})
	r := Run(tr, cfg)

	if r.Cycles != base.Cycles || r.Instructions != base.Instructions {
		t.Fatalf("observer perturbed timing: %d/%d cycles, %d/%d instructions",
			r.Cycles, base.Cycles, r.Instructions, base.Instructions)
	}
	if r.BTB != base.BTB {
		t.Fatalf("observer perturbed BTB stats:\n with    %+v\n without %+v", r.BTB, base.BTB)
	}
	if r.RedirectStall != base.RedirectStall || r.ICacheStall != base.ICacheStall || r.DataStall != base.DataStall {
		t.Fatal("observer perturbed stall attribution")
	}
	if r.DirMispredicts != base.DirMispredicts {
		t.Fatal("observer perturbed direction prediction")
	}
}

// The epoch series must tile the measured (post-warmup) region exactly:
// contiguous boundaries, widths summing to the run's instruction count, and
// a flushed partial tail.
func TestObserverEpochsTileMeasuredRegion(t *testing.T) {
	tr := smallTrace(t, "mediawiki")
	cfg, obs := observedConfig(telemetry.Options{EpochInterval: 5000})
	r := Run(tr, cfg)

	epochs := obs.Epochs.Epochs()
	if len(epochs) < 2 {
		t.Fatalf("want several epochs, got %d", len(epochs))
	}
	var instrSum, cycleSum uint64
	prevEnd := uint64(0)
	for i, e := range epochs {
		if e.StartInstr != prevEnd {
			t.Fatalf("epoch %d starts at %d, want %d (contiguous)", i, e.StartInstr, prevEnd)
		}
		if e.EndInstr <= e.StartInstr {
			t.Fatalf("epoch %d empty: [%d, %d)", i, e.StartInstr, e.EndInstr)
		}
		if e.Instructions != e.EndInstr-e.StartInstr {
			t.Fatalf("epoch %d width %d != end-start %d", i, e.Instructions, e.EndInstr-e.StartInstr)
		}
		prevEnd = e.EndInstr
		instrSum += e.Instructions
		cycleSum += e.Cycles
	}
	if instrSum != r.Instructions {
		t.Fatalf("epochs cover %d instructions, run measured %d", instrSum, r.Instructions)
	}
	if cycleSum != r.Cycles {
		t.Fatalf("epochs cover %d cycles, run measured %d", cycleSum, r.Cycles)
	}
}

// End-to-end sanity of the registry contents after an instrumented run:
// structural counters are populated, totals match the Result, and
// policy-specific counters are exported under the policy_ prefix.
func TestObserverCountersEventsAndPolicyExport(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg, obs := observedConfig(telemetry.Options{EpochInterval: 5000, EventCap: 1 << 12})
	cfg.NewPolicy = func() btb.Policy { return policy.NewGHRP() }
	r := Run(tr, cfg)

	snap := obs.Metrics.Snapshot()
	if snap.Counters["instructions"] != r.Instructions || snap.Counters["cycles"] != r.Cycles {
		t.Fatalf("exported totals %d/%d don't match result %d/%d",
			snap.Counters["instructions"], snap.Counters["cycles"], r.Instructions, r.Cycles)
	}
	if snap.Counters["btb_inserts"] == 0 {
		t.Fatal("no BTB inserts recorded")
	}
	if snap.Counters["redirects_btb_miss"] == 0 && snap.Counters["redirects_dir_mispredict"] == 0 {
		t.Fatal("no redirects attributed")
	}
	for _, name := range []string{"policy_ghrp_bypasses", "policy_ghrp_dead_evictions", "policy_ghrp_lru_fallbacks"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("missing policy counter %s", name)
		}
	}
	if h, ok := snap.Histograms["ftq_lead_cycles"]; !ok || h.Count == 0 {
		t.Fatal("FTQ lead histogram empty")
	}
	if obs.Events.Total() == 0 {
		t.Fatal("no events traced")
	}
	if g := snap.Gauges["btb_capacity"]; g == 0 {
		t.Fatal("btb_capacity gauge unset")
	}
}

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	spec, ok := workload.App("kafka")
	if !ok {
		b.Fatal("unknown app kafka")
	}
	return spec.ScaleLength(1, 8).Generate(0)
}

// BenchmarkObserverDisabled is the telemetry-off hot path: cfg.Observer ==
// nil must cost at most a nil check per block. Compare against
// BenchmarkObserverEnabled with
//
//	go test -bench 'Observer(Disabled|Enabled)' -benchtime 5x ./internal/core/
//
// The disabled path is the one the acceptance bar holds to <2% overhead
// versus the pre-telemetry simulator.
func BenchmarkObserverDisabled(b *testing.B) {
	tr := benchTrace(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(tr, cfg)
	}
}

// BenchmarkObserverEnabled measures the full-instrumentation cost (metrics
// + epochs + events) for comparison with the disabled path.
func BenchmarkObserverEnabled(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, _ := observedConfig(telemetry.Options{EpochInterval: 100000, EventCap: 1 << 16})
		Run(tr, cfg)
	}
}

// TestSlotStampsMatchPCStamps drives one BTB through random demand
// accesses and prefetch fills, with a stamp reset midway as at the end of
// warmup, under two observers: one keeps its stamps per slot (how a run
// with one BTB keeps them), the other per PC. Their eviction-age and
// hit-interval histograms must be identical, on both the fast and the
// interface dispatch path.
func TestSlotStampsMatchPCStamps(t *testing.T) {
	for _, pol := range []btb.Policy{policy.NewLRU(), policy.NewGHRP()} {
		b := btb.New(64, 4, pol)
		res := &Result{}
		bank := &btbBank{main: b}
		bySlot := newObserverState(telemetry.New(telemetry.Options{}), res, bank, nil)
		byPC := newObserverState(telemetry.New(telemetry.Options{}), res, bank, nil)
		if bySlot.stamps.bySlot == nil {
			t.Fatal("a run with one BTB should keep its stamps per slot")
		}
		byPC.stamps = stamps{byPC: make(map[uint64]stamp)}
		b.SetProbe(func(kind btb.ProbeKind, set, way int, req *btb.Request, victim *btb.Entry) {
			bySlot.probe(kind, set, way, req, victim)
			byPC.probe(kind, set, way, req, victim)
		})
		x := uint64(1)
		for step := 0; step < 50000; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			req := btb.Request{PC: x >> 40 % 300, Target: x >> 20}
			res.Cycles += x >> 60
			if x>>58&3 == 0 {
				b.PrefetchFill(&req)
			} else {
				b.Access(&req)
			}
			if step == 20000 {
				bySlot.stamps.reset()
				byPC.stamps.reset()
			}
		}
		var empty telemetry.LocalHistogram
		if bySlot.evictionAge == empty || bySlot.hitInterval == empty {
			t.Fatalf("%s: no evictions or repeat hits observed", pol.Name())
		}
		if bySlot.evictionAge != byPC.evictionAge || bySlot.hitInterval != byPC.hitInterval {
			t.Fatalf("%s: slot-keyed and PC-keyed stamps disagree", pol.Name())
		}
	}
}
