package core

import (
	"sync"
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// TestHintColumnMatchesLookup: the hint column Run reads and the column
// replay.Run builds (HintTable.Column) both hold HintTable.Lookup of every
// access's PC, for the 8192- and 7979-entry tables and for a table profiled
// on input 0 applied to input 1, whose unprofiled branches read the default
// category. Each table gets its own memoized column, and concurrent runs on
// a fresh trace share one.
func TestHintColumnMatchesLookup(t *testing.T) {
	spec, _ := workload.App("kafka")
	train := spec.ScaleLength(1, 16).Generate(0)
	test := spec.ScaleLength(1, 16).Generate(1)
	cfg := profile.DefaultConfig()
	ht8192, err := profile.HintsFor(train, 8192, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ht7979, err := profile.HintsFor(train, 7979, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		ht   *profile.HintTable
	}{
		{"8192", train, ht8192},
		{"7979", train, ht7979},
		{"input0-on-input1", test, ht8192},
	} {
		acc := tc.tr.AccessStream()
		run, built := hintColumn(tc.tr, tc.ht), tc.ht.Column(acc)
		if len(run) != len(acc) || len(built) != len(acc) {
			t.Fatalf("%s: columns of %d and %d for %d accesses", tc.name, len(run), len(built), len(acc))
		}
		unprofiled := 0
		for i := range acc {
			want := tc.ht.Lookup(acc[i].PC)
			if run[i] != want || built[i] != want {
				t.Fatalf("%s: access %d (PC %#x): Run reads %d, Column %d, Lookup %d",
					tc.name, i, acc[i].PC, run[i], built[i], want)
			}
			if _, ok := tc.ht.Hints[acc[i].PC]; !ok {
				unprofiled++
			}
		}
		if tc.tr == test && unprofiled == 0 {
			t.Errorf("%s: every access is profiled; the default category is untested", tc.name)
		}
	}
	if a, b := hintColumn(train, ht8192), hintColumn(train, ht7979); &a[0] == &b[0] {
		t.Error("two tables on one trace share one column")
	}
	if a, b := hintColumn(train, ht8192), hintColumn(train, ht8192); &a[0] != &b[0] {
		t.Error("one table's column is built twice")
	}
	if hintColumn(train, nil) != nil {
		t.Error("a run without hints has a column")
	}

	// Sixteen concurrent runs on a fresh trace: each matches a serial
	// run, and afterwards the column is in the trace's memo, so they
	// shared one build.
	run := DefaultConfig()
	run.NewPolicy = func() btb.Policy { return policy.NewThermometer() }
	run.Hints = ht8192
	want := *Run(&trace.Trace{Name: train.Name, Records: train.Records}, run)
	want.Policy = nil
	fresh := &trace.Trace{Name: train.Name, Records: train.Records}
	got := make([]Result, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = *Run(fresh, run)
			got[i].Policy = nil
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want {
			t.Errorf("concurrent run %d diverged:\n got  %+v\n want %+v", i, got[i], want)
		}
	}
	fresh.Memo(hintColumnKey{ht8192}, func() any {
		t.Error("the concurrent runs left no memoized column")
		return []uint8(nil)
	})
}

// TestTallyMemoAcrossWarmups: runs with warm-up fractions 0, 0.5 and 1 in
// sequence on one trace share its memoized frontend tallies (0 and 1 both
// measure from the first record), and each gives the Result the same run
// gives on a fresh trace.
func TestTallyMemoAcrossWarmups(t *testing.T) {
	spec, _ := workload.App("kafka")
	base := spec.ScaleLength(1, 16).Generate(0)
	shared := &trace.Trace{Name: base.Name, Records: base.Records}
	for _, frac := range []float64{0, 0.5, 1} {
		cfg := DefaultConfig()
		cfg.WarmupFrac = frac
		got := *Run(shared, cfg)
		want := *Run(&trace.Trace{Name: base.Name, Records: base.Records}, cfg)
		got.Policy, want.Policy = nil, nil
		if got != want {
			t.Errorf("WarmupFrac %v on a shared trace:\n got  %+v\n want %+v", frac, got, want)
		}
	}
}

// TestFillRingFIFOAcrossGrowth: pushes and pops interleave so the ring
// wraps with a nonzero head while it grows 64→256→1024, and every item pops
// in the order a plain slice FIFO gives.
func TestFillRingFIFOAcrossGrowth(t *testing.T) {
	var r fillRing
	var want []pendingFill
	next := 0
	wrappedGrowths := 0
	push := func() {
		if r.n == len(r.buf) && r.head != 0 {
			wrappedGrowths++
		}
		pf := pendingFill{avail: next, pc: uint64(next), target: uint64(3 * next)}
		next++
		r.push(pf)
		want = append(want, pf)
	}
	pop := func() {
		if got := *r.peek(); got != want[0] {
			t.Fatalf("peek = %+v, want %+v", got, want[0])
		}
		if got := r.pop(); got != want[0] {
			t.Fatalf("pop = %+v, want %+v", got, want[0])
		}
		want = want[1:]
	}
	sizes := []int{}
	for len(r.buf) < 1024 || r.n < 1000 {
		push()
		push()
		push()
		pop()
		if len(sizes) == 0 || sizes[len(sizes)-1] != len(r.buf) {
			sizes = append(sizes, len(r.buf))
		}
		if r.n != len(want) {
			t.Fatalf("ring holds %d fills, FIFO %d", r.n, len(want))
		}
	}
	for r.n > 0 {
		pop()
	}
	if len(want) != 0 {
		t.Fatalf("%d fills never popped", len(want))
	}
	if len(sizes) != 3 || sizes[0] != 64 || sizes[1] != 256 || sizes[2] != 1024 {
		t.Errorf("ring sizes %v, want [64 256 1024]", sizes)
	}
	if wrappedGrowths != 2 {
		t.Errorf("%d of 2 growths happened with a wrapped ring", wrappedGrowths)
	}
}
