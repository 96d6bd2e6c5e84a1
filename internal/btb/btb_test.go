package btb

import (
	"testing"

	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// naiveLRU is a minimal policy for exercising the BTB container itself.
type naiveLRU struct {
	stamp []uint64
	ways  int
	clock uint64
}

func (p *naiveLRU) Name() string { return "naiveLRU" }
func (p *naiveLRU) Reset(sets, ways int) {
	p.stamp = make([]uint64, sets*ways)
	p.ways = ways
}
func (p *naiveLRU) OnHit(set, way int, _ *Request) { p.clock++; p.stamp[set*p.ways+way] = p.clock }
func (p *naiveLRU) OnInsert(set, way int, _ *Request) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *naiveLRU) Victim(set int, _ *Request) int {
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.stamp[set*p.ways+w] < p.stamp[set*p.ways+best] {
			best = w
		}
	}
	return best
}

// alwaysBypass never inserts.
type alwaysBypass struct{}

func (alwaysBypass) Name() string                { return "bypass" }
func (alwaysBypass) Reset(int, int)              {}
func (alwaysBypass) OnHit(int, int, *Request)    {}
func (alwaysBypass) OnInsert(int, int, *Request) {}
func (alwaysBypass) Victim(int, *Request) int    { return Bypass }

func req(pc, target uint64) *Request {
	return &Request{PC: pc, Target: target, Type: trace.UncondDirect, NextUse: trace.NoNextUse}
}

func TestGeometry(t *testing.T) {
	b := New(8192, 4, &naiveLRU{})
	if b.Sets() != 2048 || b.Ways() != 4 {
		t.Fatalf("geometry = %d×%d, want 2048×4", b.Sets(), b.Ways())
	}
	b = New(7979, 4, &naiveLRU{})
	if b.Sets() != 1994 {
		t.Fatalf("7979-entry sets = %d, want 1994", b.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad geometry")
		}
	}()
	New(2, 4, &naiveLRU{})
}

func TestHitAfterInsert(t *testing.T) {
	b := New(64, 4, &naiveLRU{})
	r := b.Access(req(100, 200))
	if r.Hit {
		t.Fatal("first access hit")
	}
	if tg, hit := b.Lookup(100); !hit || tg != 200 {
		t.Fatalf("Lookup after insert = (%d, %v)", tg, hit)
	}
	r = b.Access(req(100, 200))
	if !r.Hit {
		t.Fatal("second access missed")
	}
	s := b.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Insertions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTargetUpdate(t *testing.T) {
	b := New(64, 4, &naiveLRU{})
	b.Access(req(100, 200))
	b.Access(req(100, 300))
	if tg, _ := b.Lookup(100); tg != 300 {
		t.Fatalf("target = %d, want 300", tg)
	}
	if s := b.Stats(); s.TargetUpdates != 1 {
		t.Fatalf("target updates = %d, want 1", s.TargetUpdates)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	// 1 set × 2 ways: fill with A, B; touch A; insert C → B evicted.
	b := NewWithSets(1, 2, &naiveLRU{})
	b.Access(req(1, 10))
	b.Access(req(2, 20))
	b.Access(req(1, 10)) // A is now MRU
	r := b.Access(req(3, 30))
	if !r.Evicted.Valid || r.Evicted.PC != 2 {
		t.Fatalf("evicted = %+v, want PC 2", r.Evicted)
	}
	if _, hit := b.Lookup(2); hit {
		t.Fatal("evicted entry still present")
	}
	if _, hit := b.Lookup(1); !hit {
		t.Fatal("MRU entry evicted")
	}
}

func TestBypassPolicy(t *testing.T) {
	b := NewWithSets(1, 2, alwaysBypass{})
	b.Access(req(1, 10))
	b.Access(req(2, 20))
	r := b.Access(req(3, 30))
	if !r.Bypassed || r.Way != -1 {
		t.Fatalf("expected bypass, got %+v", r)
	}
	if s := b.Stats(); s.Bypasses != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if _, hit := b.Lookup(1); !hit {
		t.Fatal("resident lost on bypass")
	}
}

func TestNoDuplicateTagsProperty(t *testing.T) {
	b := New(256, 4, &naiveLRU{})
	r := xrand.New(7)
	for i := 0; i < 20000; i++ {
		pc := uint64(r.Intn(2000)) + 1
		b.Access(req(pc, pc+100))
	}
	for s := 0; s < b.Sets(); s++ {
		seen := map[uint64]bool{}
		for _, e := range b.Contents(s) {
			if !e.Valid {
				continue
			}
			if int(e.PC%uint64(b.Sets())) != s {
				t.Fatalf("entry %d mapped to wrong set %d", e.PC, s)
			}
			if seen[e.PC] {
				t.Fatalf("duplicate tag %d in set %d", e.PC, s)
			}
			seen[e.PC] = true
		}
	}
	st := b.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits+misses != accesses: %+v", st)
	}
	if st.Insertions != st.Misses-st.Bypasses {
		t.Fatalf("insertions != misses-bypasses: %+v", st)
	}
	if b.Occupancy() <= 0.5 {
		t.Fatalf("occupancy = %v, expected mostly full", b.Occupancy())
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate != 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestIBTB(t *testing.T) {
	ib := NewIBTB(4096)
	if _, ok := ib.Predict(500); ok {
		t.Fatal("empty IBTB predicted")
	}
	if ib.Update(500, 1000) {
		t.Fatal("first update counted correct")
	}
	if tg, ok := ib.Predict(500); !ok || tg != 1000 {
		t.Fatalf("Predict = (%d, %v), want (1000, true)", tg, ok)
	}
	if !ib.Update(500, 1000) {
		t.Fatal("repeat update not correct")
	}
	ib2 := NewIBTB(16)
	ib2.Update(7, 100)
	if ib2.Accuracy() != 0 {
		t.Fatalf("first update accuracy = %v", ib2.Accuracy())
	}
}

func TestIBTBHysteresis(t *testing.T) {
	// A strongly monomorphic branch with occasional excursions keeps its
	// dominant target: one excursion must not displace it.
	ib := NewIBTB(1 << 12)
	for i := 0; i < 5; i++ {
		ib.Update(42, 0x1000)
	}
	if ib.Update(42, 0x2000) {
		t.Fatal("excursion counted correct")
	}
	if tg, ok := ib.Predict(42); !ok || tg != 0x1000 {
		t.Fatalf("dominant target displaced: (%#x, %v)", tg, ok)
	}
	if !ib.Update(42, 0x1000) {
		t.Fatal("dominant target lost after excursion")
	}
	// Sustained change of target eventually wins.
	for i := 0; i < 8; i++ {
		ib.Update(42, 0x3000)
	}
	if tg, _ := ib.Predict(42); tg != 0x3000 {
		t.Fatalf("sustained new target not learned: %#x", tg)
	}
}

func TestRASBasics(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("empty RAS popped")
	}
	r.Push(10)
	r.Push(20)
	if a, ok := r.Pop(); !ok || a != 20 {
		t.Fatalf("pop = (%d,%v), want 20", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 10 {
		t.Fatalf("pop = (%d,%v), want 10", a, ok)
	}
	if r.Depth() != 0 {
		t.Fatalf("depth = %d", r.Depth())
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Fatalf("pop = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Fatalf("pop = %d, want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("popped overwritten frame")
	}
	if r.Overflows != 1 {
		t.Fatalf("overflows = %d", r.Overflows)
	}
}
