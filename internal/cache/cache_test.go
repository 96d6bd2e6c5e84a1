package cache

import (
	"testing"

	"thermometer/internal/xrand"
)

func TestGeometry(t *testing.T) {
	c := New("L1I", 32<<10, 8, 64)
	if c.Sets() != 64 {
		t.Fatalf("sets = %d, want 64", c.Sets())
	}
	if c.Name() != "L1I" {
		t.Fatal("name")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 128, 4, 63) }, // non-power-of-two block
		func() { New("x", 64, 4, 64) },  // fewer blocks than ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New("t", 1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) || !c.Access(0x103f) {
		t.Fatal("same block missed")
	}
	if c.Access(0x1040) {
		t.Fatal("next block hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("stats = %d/%d", c.Misses, c.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, map three blocks to one set: sets = 8, so stride 8*64 = 512.
	c := New("t", 1<<10, 2, 64) // 8 sets
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a MRU
	c.Access(d) // evicts b
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("LRU eviction order wrong")
	}
}

func TestProbeDoesNotModify(t *testing.T) {
	c := New("t", 1<<10, 2, 64)
	c.Probe(0x40)
	if c.Accesses != 0 {
		t.Fatal("probe counted as access")
	}
	if c.Probe(0x40) {
		t.Fatal("probe filled the cache")
	}
}

func TestNoDuplicateBlocksProperty(t *testing.T) {
	c := New("t", 1<<12, 4, 64)
	r := xrand.New(9)
	for i := 0; i < 50000; i++ {
		c.Access(uint64(r.Intn(1 << 14)))
	}
	seen := map[uint64]bool{}
	for i, s := range c.stamp {
		if s == 0 { // never filled
			continue
		}
		if seen[c.tags[i]] {
			t.Fatalf("duplicate block %#x", c.tags[i])
		}
		seen[c.tags[i]] = true
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy()
	lvl, lat := h.FetchInstr(0x400000)
	if lvl != Memory || lat != MemoryLatency {
		t.Fatalf("cold fetch = %v/%d", lvl, lat)
	}
	lvl, lat = h.FetchInstr(0x400000)
	if lvl != L1 || lat != 0 {
		t.Fatalf("warm fetch = %v/%d", lvl, lat)
	}
	if h.InstrFetches != 2 || h.InstrL1Misses != 1 || h.L2.Misses != 1 || h.LLC.Misses != 1 {
		t.Fatalf("instr counters: %+v, L2 misses %d, LLC misses %d", *h, h.L2.Misses, h.LLC.Misses)
	}
}

func TestHierarchyInclusionOnFetchPath(t *testing.T) {
	h := NewHierarchy()
	h.FetchInstr(0x123456)
	if !h.L1I.Probe(0x123456) || !h.L2.Probe(0x123456) || !h.LLC.Probe(0x123456) {
		t.Fatal("miss did not fill all levels")
	}
}

func TestLoadData(t *testing.T) {
	h := NewHierarchy()
	if lvl, _ := h.LoadData(0x900000); lvl != Memory {
		t.Fatalf("cold load level %v", lvl)
	}
	if lvl, lat := h.LoadData(0x900000); lvl != L1 || lat != 0 {
		t.Fatal("warm load wrong")
	}
	// L2 hit path: evict from L1D by conflicting loads, keep in L2.
	// L1D has 48KB/12w/64B = 64 sets → stride 4096 aliases a set.
	for i := uint64(1); i <= 13; i++ {
		h.LoadData(0x900000 + i*4096)
	}
	lvl, lat := h.LoadData(0x900000)
	if lvl != L2 || lat != L2Latency {
		t.Fatalf("L2 hit path = %v/%d", lvl, lat)
	}
}

// TestL2iMPKI: every cold instruction fetch misses L2, the misses Fig 3's
// L2iMPKI counts (core.Result derives it from its own per-line tallies).
func TestL2iMPKI(t *testing.T) {
	h := NewHierarchy()
	for i := uint64(0); i < 100; i++ {
		if lvl, _ := h.FetchInstr(i * 64); lvl != Memory {
			t.Fatalf("cold fetch %d served by %v", i, lvl)
		}
	}
	if h.InstrFetches != 100 || h.L2.Misses != 100 {
		t.Fatalf("%d fetches, %d L2 misses, want 100 of each", h.InstrFetches, h.L2.Misses)
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || LLC.String() != "LLC" || Memory.String() != "DRAM" {
		t.Fatal("level strings")
	}
}
