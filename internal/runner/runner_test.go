package runner

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachSerialIsInline(t *testing.T) {
	// workers=1 must preserve strict index order (the reference serial path).
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestSpecNormalizedDefaults(t *testing.T) {
	n, err := Spec{App: "kafka"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Suite != SuiteApp || n.Mode != ModeTiming || n.Policy != "lru" ||
		n.Scale != 1 || n.BTBEntries != 8192 || n.BTBWays != 4 {
		t.Fatalf("defaults not applied: %+v", n)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string // substring of the error
	}{
		{Spec{}, "requires an app"},
		{Spec{App: "nosuchapp"}, "unknown app"},
		{Spec{App: "kafka", Policy: "belady"}, "unknown policy"},
		{Spec{App: "kafka", Mode: "emulate"}, "unknown mode"},
		{Spec{App: "kafka", Index: 3}, "only valid for the cbp5/ipc1"},
		{Spec{Suite: SuiteCBP5, Index: 100000}, "out of range"},
		{Spec{Suite: SuiteIPC1, App: "kafka"}, "only valid for the app suite"},
		{Spec{Suite: "spec2017"}, "unknown suite"},
		{Spec{App: "kafka", Input: 9}, "input 9 out of range"},
		{Spec{App: "kafka", BTBEntries: 4, BTBWays: 8}, "exceeds"},
	}
	for _, c := range cases {
		if _, err := c.spec.Normalized(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %+v: error %v, want substring %q", c.spec, err, c.want)
		}
	}
}

func TestSpecKeyCanonicalization(t *testing.T) {
	// Explicit defaults and omitted defaults are the same job.
	a := Spec{App: "kafka"}
	b := Spec{Suite: SuiteApp, App: "kafka", Scale: 1, Mode: ModeTiming,
		Policy: "lru", BTBEntries: 8192, BTBWays: 4}
	if a.Key() != b.Key() {
		t.Fatal("omitted and explicit defaults hash differently")
	}
	// Any semantic change must change the key.
	variants := []Spec{
		{App: "kafka", Policy: "srrip"},
		{App: "kafka", Scale: 2},
		{App: "kafka", Input: 1},
		{App: "kafka", Hints: true, Policy: "thermometer"},
		{App: "kafka", BTBEntries: 4096},
		{App: "mysql"},
		{Suite: SuiteCBP5, Index: 0},
	}
	seen := map[string]int{a.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide: %+v vs %+v", i, j, v, variants[max(j, 0)])
		}
		seen[k] = i
	}
	// Keys are stable across calls.
	if a.Key() != a.Key() {
		t.Fatal("key not stable")
	}
}
