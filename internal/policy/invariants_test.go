package policy

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// TestThermometerUniformHintsEqualsLRU: when every branch carries the same
// temperature, Algorithm 1 degenerates exactly to LRU (the fallback path),
// access for access.
func TestThermometerUniformHintsEqualsLRU(t *testing.T) {
	r := xrand.New(404)
	for iter := 0; iter < 8; iter++ {
		acc := randomStream(r, 50+r.Intn(100), 3000)
		for _, temp := range []uint8{0, 1, 2} {
			th := btb.NewWithSets(4, 4, NewThermometer())
			lr := btb.NewWithSets(4, 4, NewLRU())
			for i := range acc {
				a := &acc[i]
				rt := th.Access(&btb.Request{PC: a.PC, Target: a.Target, Temperature: temp, NextUse: trace.NoNextUse})
				rl := lr.Access(&btb.Request{PC: a.PC, Target: a.Target, NextUse: trace.NoNextUse})
				if rt.Hit != rl.Hit {
					t.Fatalf("iter %d temp %d: diverged at access %d", iter, temp, i)
				}
			}
			if th.Stats() != lr.Stats() {
				t.Fatalf("iter %d temp %d: stats differ: %+v vs %+v", iter, temp, th.Stats(), lr.Stats())
			}
		}
	}
}

// TestThermometerNeverEvictsHotterForColder: a resident strictly hotter
// than every other candidate must survive any single replacement decision.
func TestThermometerNeverEvictsHotterForColder(t *testing.T) {
	r := xrand.New(77)
	for iter := 0; iter < 2000; iter++ {
		p := NewThermometer()
		b := btb.NewWithSets(1, 4, p)
		// Fill with random temperatures, one way strictly hottest.
		hotWay := r.Intn(4)
		var hotPC uint64
		for w := 0; w < 4; w++ {
			temp := uint8(r.Intn(2)) // 0 or 1
			pc := uint64(100 + w)
			if w == hotWay {
				temp = 3
				hotPC = pc
			}
			b.Access(&btb.Request{PC: pc, Target: pc + 4, Temperature: temp, NextUse: trace.NoNextUse})
		}
		// Incoming colder than the hottest resident.
		b.Access(&btb.Request{PC: 999, Target: 1003, Temperature: uint8(r.Intn(3)), NextUse: trace.NoNextUse})
		if _, hit := b.Lookup(hotPC); !hit {
			t.Fatalf("iter %d: hottest resident evicted", iter)
		}
	}
}

// TestBypassOnlyWhenUniquelyColdest: Algorithm 1 line 5-6.
func TestBypassOnlyWhenUniquelyColdest(t *testing.T) {
	r := xrand.New(99)
	for iter := 0; iter < 2000; iter++ {
		p := NewThermometer()
		b := btb.NewWithSets(1, 3, p)
		temps := make([]uint8, 3)
		for w := 0; w < 3; w++ {
			temps[w] = uint8(r.Intn(4))
			pc := uint64(10 + w)
			b.Access(&btb.Request{PC: pc, Target: pc + 1, Temperature: temps[w], NextUse: trace.NoNextUse})
		}
		inTemp := uint8(r.Intn(4))
		res := b.Access(&btb.Request{PC: 999, Target: 1000, Temperature: inTemp, NextUse: trace.NoNextUse})
		uniquelyColdest := true
		for _, rt := range temps {
			if rt <= inTemp {
				uniquelyColdest = false
			}
		}
		if res.Bypassed != uniquelyColdest {
			t.Fatalf("iter %d: bypassed=%v but uniquelyColdest=%v (in=%d residents=%v)",
				iter, res.Bypassed, uniquelyColdest, inTemp, temps)
		}
	}
}

// TestSRRIPAgingTerminates: SRRIP's aging loop must always find a victim.
func TestSRRIPAgingTerminates(t *testing.T) {
	p := NewSRRIP()
	b := btb.NewWithSets(1, 8, p)
	r := xrand.New(5)
	for i := 0; i < 10000; i++ {
		pc := uint64(r.Intn(64) + 1)
		b.Access(&btb.Request{PC: pc, Target: pc + 4, NextUse: trace.NoNextUse})
	}
	if b.Stats().Accesses != 10000 {
		t.Fatal("accesses lost")
	}
}

// TestPrefetchFillRespectsBypass: OPT must refuse prefetch fills whose next
// use is further than every resident's.
func TestPrefetchFillRespectsBypass(t *testing.T) {
	p := NewOPT()
	b := btb.NewWithSets(1, 2, p)
	b.Access(&btb.Request{PC: 1, Target: 2, NextUse: 10})
	b.Access(&btb.Request{PC: 2, Target: 3, NextUse: 11})
	// Prefetch with a worse next use: rejected.
	if b.PrefetchFill(&btb.Request{PC: 3, Target: 4, NextUse: 100}) {
		t.Fatal("useless prefetch accepted")
	}
	// Prefetch with a better next use: accepted, evicting the worst.
	if !b.PrefetchFill(&btb.Request{PC: 4, Target: 5, NextUse: 5}) {
		t.Fatal("useful prefetch rejected")
	}
	if _, hit := b.Lookup(2); hit {
		t.Fatal("furthest-use resident survived useful prefetch")
	}
	// Duplicate prefetch: no-op.
	if b.PrefetchFill(&btb.Request{PC: 4, Target: 5, NextUse: 5}) {
		t.Fatal("duplicate prefetch filled")
	}
	if b.Stats().PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", b.Stats().PrefetchFills)
	}
}

// TestHolisticOnlyBeatsNothingOnUniform: with uniform temperatures the
// holistic-only ablation is FIFO; sanity-check it still functions.
func TestHolisticOnlyUniformIsFIFO(t *testing.T) {
	p := NewHolisticOnly()
	b := btb.NewWithSets(1, 2, p)
	mk := func(pc uint64) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: 1, NextUse: trace.NoNextUse}
	}
	b.Access(mk(1))
	b.Access(mk(2))
	b.Access(mk(1)) // hit; FIFO unaffected
	r := b.Access(mk(3))
	if r.Evicted.PC != 1 {
		t.Fatalf("FIFO violated: evicted %d", r.Evicted.PC)
	}
}

// TestThermometerTemperatureMirrorsBTB: Thermometer and HolisticOnly decide
// victims from their own per-way copy of the temperatures the BTB stores.
// A random mix of demand accesses and prefetch fills, whose temperatures
// change between accesses of one PC, must leave every valid way's copy
// equal to the BTB's after each step.
func TestThermometerTemperatureMirrorsBTB(t *testing.T) {
	th, nb, ho := NewThermometer(), NewThermometerNoBypass(), NewHolisticOnly()
	for _, tc := range []struct {
		p     btb.Policy
		temps *tempState
	}{
		{th, &th.temps},
		{nb, &nb.temps},
		{ho, &ho.temps},
	} {
		b := btb.NewWithSets(4, 4, tc.p)
		r := xrand.New(17)
		for step := 0; step < 4000; step++ {
			pc := uint64(1 + r.Intn(40))
			req := btb.Request{
				PC: pc, Target: pc + 4, Type: trace.UncondDirect,
				Temperature: uint8(r.Intn(3)), NextUse: trace.NoNextUse, Index: step,
			}
			if r.Bool(0.25) {
				req.Prefetch = true
				b.PrefetchFill(&req)
			} else {
				b.Access(&req)
			}
			for s := 0; s < b.Sets(); s++ {
				for w, e := range b.Contents(s) {
					if got := tc.temps.of(s)[w]; e.Valid && got != e.Temperature {
						t.Fatalf("%s step %d: set %d way %d holds temperature %d, policy mirrors %d",
							tc.p.Name(), step, s, w, e.Temperature, got)
					}
				}
			}
		}
		if st := b.Stats(); st.Hits == 0 || st.Evictions == 0 || st.PrefetchFills == 0 {
			t.Errorf("%s: stream too tame to test the mirror: %+v", tc.p.Name(), st)
		}
	}
}
