package core

import (
	"testing"

	"thermometer/internal/attribution"
	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/telemetry"
)

// TestRegretConservation checks the attribution layer's two accounting
// identities over full simulator runs, for both LRU and Thermometer:
//
//   - the miss taxonomy is exhaustive: compulsory + capacity + conflict
//     misses sum exactly to the run's demand BTB misses;
//   - regret conservation: charged − windfall = policy misses − shadow-OPT
//     misses, with every charged miss attributed to a recorded decision
//     (nothing unattributed), the per-set and per-branch regret tables
//     each summing to the charged total, and the (victim, incoming)
//     temperature join summing to the attributed charges.
//
// Both must survive the warmup statistics reset, which is why the whole
// identity is checked against the run's own post-warmup BTB counters.
func TestRegretConservation(t *testing.T) {
	tr := smallTrace(t, "kafka")
	ht, _, err := profileTraceForTest(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		newPolicy func() btb.Policy
		hints     bool
	}{
		{"lru", func() btb.Policy { return policy.NewLRU() }, false},
		{"thermometer", func() btb.Policy { return policy.NewThermometer() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			att := attribution.New(attribution.Options{})
			cfg := DefaultConfig()
			cfg.NewPolicy = tc.newPolicy
			if tc.hints {
				cfg.Hints = ht
			}
			cfg.Attribution = att
			r := Run(tr, cfg)

			accesses, hits, misses, regret := att.Counts()
			if accesses != r.BTB.Accesses {
				t.Fatalf("attribution saw %d demand accesses, run counted %d", accesses, r.BTB.Accesses)
			}
			if hits != r.BTB.Hits || misses.Total != r.BTB.Misses {
				t.Fatalf("attribution hits/misses %d/%d, run %d/%d",
					hits, misses.Total, r.BTB.Hits, r.BTB.Misses)
			}
			if sum := misses.Compulsory + misses.Capacity + misses.Conflict; sum != misses.Total {
				t.Fatalf("taxonomy leaks: %d+%d+%d = %d != %d misses",
					misses.Compulsory, misses.Capacity, misses.Conflict, sum, misses.Total)
			}
			if misses.Compulsory == 0 || misses.Conflict+misses.Capacity == 0 {
				t.Fatalf("degenerate classification %+v", misses)
			}

			net := int64(r.BTB.Misses) - int64(regret.ShadowOPTMisses)
			if regret.Net != net {
				t.Fatalf("regret not conserved: charged %d - windfall %d = %d, want misses %d - OPT misses %d = %d",
					regret.Charged, regret.Windfall, regret.Net, r.BTB.Misses, regret.ShadowOPTMisses, net)
			}
			if regret.Net <= 0 {
				t.Fatalf("net regret %d: a real policy must trail OPT on this trace", regret.Net)
			}
			if regret.Unattributed != 0 {
				t.Fatalf("%d charged misses had no responsible decision on record", regret.Unattributed)
			}
			if regret.Decisions == 0 || regret.AgreeOPT == 0 {
				t.Fatalf("implausible decision counts %+v", regret)
			}

			rep := att.Report(10)
			var perSet, perBranch uint64
			for _, s := range rep.PerSet {
				perSet += s.Charged
			}
			// TopBranches is truncated; re-sum via a full report.
			full := att.Report(1 << 30)
			for _, b := range full.TopBranches {
				perBranch += b.Charged
			}
			if perSet != regret.Charged || perBranch != regret.Charged {
				t.Fatalf("regret tables leak: per-set %d, per-branch %d, charged %d",
					perSet, perBranch, regret.Charged)
			}
			// The temperature join covers every charge with a decision on
			// record.
			var byTemp uint64
			for _, row := range full.ChargedByTemp {
				for _, n := range row {
					byTemp += n
				}
			}
			if byTemp != regret.Charged-regret.Unattributed {
				t.Fatalf("charged by temperature sums to %d, want charged %d - unattributed %d",
					byTemp, regret.Charged, regret.Unattributed)
			}
			if uint64(len(full.RecentDecisions))+full.DecisionsDropped != regret.Decisions {
				t.Fatalf("ring accounting: %d retained + %d dropped != %d decisions",
					len(full.RecentDecisions), full.DecisionsDropped, regret.Decisions)
			}
			_ = rep
		})
	}
}

// A run under the real OPT policy must match the shadow OPT model miss for
// miss: zero net regret is the strongest end-to-end check that the shadow
// reference and the online policy implement the same algorithm.
func TestRegretZeroUnderOPT(t *testing.T) {
	tr := smallTrace(t, "kafka")
	att := attribution.New(attribution.Options{})
	cfg := DefaultConfig()
	cfg.NewPolicy = func() btb.Policy { return policy.NewOPT() }
	cfg.Attribution = att
	r := Run(tr, cfg)

	_, _, _, regret := att.Counts()
	if regret.ShadowOPTMisses != r.BTB.Misses {
		t.Fatalf("shadow OPT misses %d != real OPT policy misses %d",
			regret.ShadowOPTMisses, r.BTB.Misses)
	}
	if regret.Net != 0 {
		t.Fatalf("net regret %d under the OPT policy, want 0 (charged %d, windfall %d)",
			regret.Net, regret.Charged, regret.Windfall)
	}
}

// Attaching the attribution recorder must not perturb the simulation, with
// or without a telemetry observer alongside.
func TestAttributionDoesNotPerturbResult(t *testing.T) {
	tr := smallTrace(t, "kafka")
	base := Run(tr, DefaultConfig())

	cfg := DefaultConfig()
	cfg.Attribution = attribution.New(attribution.Options{})
	r := Run(tr, cfg)
	if r.Cycles != base.Cycles || r.BTB != base.BTB {
		t.Fatalf("attribution perturbed the run: %+v vs %+v", r.BTB, base.BTB)
	}

	cfg, _ = observedConfig(telemetry.Options{EpochInterval: 5000, EventCap: 1 << 12})
	cfg.Attribution = attribution.New(attribution.Options{})
	r = Run(tr, cfg)
	if r.Cycles != base.Cycles || r.BTB != base.BTB {
		t.Fatalf("attribution+observer perturbed the run: %+v vs %+v", r.BTB, base.BTB)
	}
}

// With an observer attached, the heatmap samples on the epoch grid — one
// row per closed epoch — and closes with the final partial epoch. The second
// case sets the interval to the measured region's length, so the last block
// closes the only epoch and the end of the run has no partial epoch left:
// it must not add a second row at the same instruction count.
func TestAttributionHeatmapOnEpochGrid(t *testing.T) {
	tr := smallTrace(t, "kafka")
	measured := Run(tr, DefaultConfig()).Instructions
	for _, interval := range []uint64{5000, measured} {
		cfg, obs := observedConfig(telemetry.Options{EpochInterval: interval})
		att := attribution.New(attribution.Options{})
		cfg.Attribution = att
		r := Run(tr, cfg)

		rep := att.Report(1)
		epochs := obs.Epochs.Epochs()
		if len(rep.Heat) == 0 {
			t.Fatalf("interval %d: no heatmap rows sampled", interval)
		}
		if got, want := len(rep.Heat)+int(rep.HeatDropped), len(epochs); got != want {
			t.Fatalf("interval %d: heat rows %d != epochs %d", interval, got, want)
		}
		last := rep.Heat[len(rep.Heat)-1]
		if last.EndInstr != r.Instructions {
			t.Fatalf("interval %d: last heat row at instruction %d, run ended at %d", interval, last.EndInstr, r.Instructions)
		}
		if len(last.Valid) != cfg.BTBEntries/cfg.BTBWays {
			t.Fatalf("interval %d: heat row has %d sets, want %d", interval, len(last.Valid), cfg.BTBEntries/cfg.BTBWays)
		}
		var occupied int
		for _, v := range last.Valid {
			occupied += int(v)
		}
		if occupied == 0 {
			t.Fatalf("interval %d: final heat row shows an empty BTB after a full run", interval)
		}
	}
}

// Attribution on an unsupported organization must fail loudly, not produce
// silently-wrong shadow accounting.
func TestAttributionRejectsPartitionedBTB(t *testing.T) {
	tr := smallTrace(t, "kafka")
	cfg := DefaultConfig()
	cfg.ShotgunPartition = true
	cfg.Attribution = attribution.New(attribution.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted attribution with a partitioned BTB")
		}
	}()
	Run(tr, cfg)
}
