package belady

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

func stream(pcs []uint64) []trace.Access {
	tr := &trace.Trace{Name: "t"}
	for _, pc := range pcs {
		tr.Records = append(tr.Records, trace.Record{
			PC: pc, Target: pc + 4, Taken: true, Type: trace.UncondDirect,
		})
	}
	return tr.AccessStream()
}

func randomStream(r *xrand.RNG, nPCs, length int) []trace.Access {
	z := xrand.NewZipf(nPCs, 0.9)
	pcs := make([]uint64, length)
	for i := range pcs {
		pcs[i] = uint64(z.Sample(r) + 1)
	}
	return stream(pcs)
}

// branch returns res's profile of pc, or nil.
func branch(res *Result, pc uint64) *BranchProfile {
	for i := range res.PerBranch {
		if res.PerBranch[i].PC == pc {
			return &res.PerBranch[i]
		}
	}
	return nil
}

func TestProfileBasics(t *testing.T) {
	// 2 hot branches cycling + unique cold branches, 1 set × 2 ways.
	pcs := []uint64{1, 2}
	cold := uint64(100)
	for rep := 0; rep < 10; rep++ {
		pcs = append(pcs, 1, 2, cold)
		cold++
	}
	res := ProfileSets(stream(pcs), 1, 2)
	if res.Accesses != uint64(len(pcs)) {
		t.Fatalf("accesses = %d, want %d", res.Accesses, len(pcs))
	}
	b1 := branch(res, 1)
	if b1 == nil || b1.Taken != 11 {
		t.Fatalf("branch 1 profile = %+v", b1)
	}
	// Optimal keeps branches 1 and 2 resident; the cold stream bypasses.
	if b1.Hits != 10 {
		t.Fatalf("branch 1 hits = %d, want 10", b1.Hits)
	}
	if got := b1.HitToTaken(); got < 0.9 {
		t.Fatalf("branch 1 hit-to-taken = %v, want >= 0.9", got)
	}
	bc := branch(res, 100)
	if bc.Hits != 0 || bc.Bypasses != 1 {
		t.Fatalf("cold branch profile = %+v", bc)
	}
	if bc.HitToTaken() != 0 {
		t.Fatalf("cold hit-to-taken = %v", bc.HitToTaken())
	}
	if res.HitRate() <= 0.5 {
		t.Fatalf("hit rate = %v", res.HitRate())
	}
}

func TestBypassRatio(t *testing.T) {
	b := BranchProfile{Inserts: 1, Bypasses: 3}
	if b.BypassRatio() != 0.75 {
		t.Fatalf("bypass ratio = %v", b.BypassRatio())
	}
	var empty BranchProfile
	if empty.BypassRatio() != 0 || empty.HitToTaken() != 0 {
		t.Fatal("zero-value profile ratios not 0")
	}
}

func TestSortedByTemperature(t *testing.T) {
	pcs := []uint64{1, 1, 1, 1, 2, 9, 2, 8, 2, 7}
	res := ProfileSets(stream(pcs), 1, 2)
	sorted := res.SortedByTemperature()
	if len(sorted) != 5 {
		t.Fatalf("sorted length = %d", len(sorted))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].HitToTaken() < sorted[i].HitToTaken() {
			t.Fatalf("not descending at %d", i)
		}
	}
}

// TestMatchesOnlineOPT cross-checks the offline profiler against the online
// OPT replacement policy: both implement Belady-with-bypass and must agree
// exactly on hits and bypasses.
func TestMatchesOnlineOPT(t *testing.T) {
	r := xrand.New(31)
	for iter := 0; iter < 10; iter++ {
		acc := randomStream(r, 80, 4000)
		sets, ways := 4, 4
		res := ProfileSets(acc, sets, ways)

		b := btb.NewWithSets(sets, ways, policy.NewOPT())
		for i := range acc {
			a := &acc[i]
			b.Access(&btb.Request{PC: a.PC, Target: a.Target, NextUse: a.NextUse, Index: i})
		}
		online := b.Stats()
		if res.Hits != online.Hits {
			t.Fatalf("iter %d: offline hits %d != online OPT hits %d", iter, res.Hits, online.Hits)
		}
		if res.Bypasses != online.Bypasses {
			t.Fatalf("iter %d: offline bypasses %d != online %d", iter, res.Bypasses, online.Bypasses)
		}
	}
}

// TestOptimalDominatesProperty: on random streams, the offline optimal hit
// count is an upper bound for every realizable policy.
func TestOptimalDominatesProperty(t *testing.T) {
	r := xrand.New(57)
	for iter := 0; iter < 10; iter++ {
		acc := randomStream(r, 50+r.Intn(100), 3000)
		res := ProfileSets(acc, 2, 4)
		for _, p := range []btb.Policy{policy.NewLRU(), policy.NewSRRIP(), policy.NewRandom()} {
			b := btb.NewWithSets(2, 4, p)
			for i := range acc {
				a := &acc[i]
				b.Access(&btb.Request{PC: a.PC, Target: a.Target, NextUse: a.NextUse, Index: i})
			}
			if s := b.Stats(); s.Hits > res.Hits {
				t.Fatalf("iter %d: %s hits %d > OPT %d", iter, p.Name(), s.Hits, res.Hits)
			}
		}
	}
}

func TestPerBranchTotalsConsistent(t *testing.T) {
	r := xrand.New(91)
	acc := randomStream(r, 120, 5000)
	res := Profile(acc, 16, 4)
	var taken, hits, ins, byp uint64
	for _, b := range res.PerBranch {
		taken += b.Taken
		hits += b.Hits
		ins += b.Inserts
		byp += b.Bypasses
	}
	if taken != res.Accesses || hits != res.Hits || byp != res.Bypasses {
		t.Fatalf("per-branch totals inconsistent: taken=%d hits=%d byp=%d vs %+v",
			taken, hits, byp, res)
	}
	if ins+byp != res.Misses {
		t.Fatalf("inserts+bypasses=%d != misses=%d", ins+byp, res.Misses)
	}
}

func TestDegenerateGeometry(t *testing.T) {
	acc := stream([]uint64{1, 2, 1, 2})
	res := Profile(acc, 2, 4) // entries < ways → clamps to 1 set
	if res.Sets != 1 {
		t.Fatalf("sets = %d, want 1", res.Sets)
	}
	if res.Hits != 2 {
		t.Fatalf("hits = %d, want 2", res.Hits)
	}
}
