package policy

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// stream builds an access stream (with next-use oracle) from a PC sequence.
func stream(pcs []uint64) []trace.Access {
	tr := &trace.Trace{Name: "t"}
	for _, pc := range pcs {
		tr.Records = append(tr.Records, trace.Record{
			PC: pc, Target: pc + 4, Taken: true, Type: trace.UncondDirect,
		})
	}
	return tr.AccessStream()
}

// runPolicy replays a stream through a small BTB and returns hit count.
func runPolicy(accesses []trace.Access, sets, ways int, p btb.Policy, temps map[uint64]uint8) btb.Stats {
	b := btb.NewWithSets(sets, ways, p)
	for i := range accesses {
		a := &accesses[i]
		req := &btb.Request{PC: a.PC, Target: a.Target, Type: a.Type, NextUse: a.NextUse, Index: i}
		if temps != nil {
			req.Temperature = temps[a.PC]
		}
		b.Access(req)
	}
	return b.Stats()
}

func randomStream(r *xrand.RNG, nPCs, length int) []trace.Access {
	pcs := make([]uint64, length)
	z := xrand.NewZipf(nPCs, 0.8)
	for i := range pcs {
		pcs[i] = uint64(z.Sample(r) + 1)
	}
	return stream(pcs)
}

func TestLRUStackProperty(t *testing.T) {
	// With W ways and a cyclic working set of size <= W mapping to one set,
	// LRU must hit every access after the first W.
	for _, w := range []int{2, 4, 8} {
		pcs := []uint64{}
		for rep := 0; rep < 10; rep++ {
			for k := 0; k < w; k++ {
				pcs = append(pcs, uint64(k+1))
			}
		}
		s := runPolicy(stream(pcs), 1, w, NewLRU(), nil)
		wantHits := uint64(len(pcs) - w)
		if s.Hits != wantHits {
			t.Errorf("ways=%d: hits = %d, want %d", w, s.Hits, wantHits)
		}
	}
}

func TestLRUThrashing(t *testing.T) {
	// Cyclic working set of W+1 over W ways: LRU gets zero hits.
	const w = 4
	pcs := []uint64{}
	for rep := 0; rep < 20; rep++ {
		for k := 0; k <= w; k++ {
			pcs = append(pcs, uint64(k+1))
		}
	}
	s := runPolicy(stream(pcs), 1, w, NewLRU(), nil)
	if s.Hits != 0 {
		t.Errorf("thrash hits = %d, want 0", s.Hits)
	}
}

func TestOPTBeatsLRUOnThrashing(t *testing.T) {
	const w = 4
	pcs := []uint64{}
	for rep := 0; rep < 20; rep++ {
		for k := 0; k <= w; k++ {
			pcs = append(pcs, uint64(k+1))
		}
	}
	acc := stream(pcs)
	lru := runPolicy(acc, 1, w, NewLRU(), nil)
	opt := runPolicy(acc, 1, w, NewOPT(), nil)
	if opt.Hits <= lru.Hits {
		t.Fatalf("OPT hits %d <= LRU hits %d", opt.Hits, lru.Hits)
	}
	// Belady on cyclic W+1 working set keeps W-1 stable lines: per cycle of
	// W+1 accesses, W-1 hits after warmup.
	if opt.Hits < uint64(19*(w-1)) {
		t.Fatalf("OPT hits %d below theoretical %d", opt.Hits, 19*(w-1))
	}
}

func TestOPTDominanceProperty(t *testing.T) {
	r := xrand.New(2024)
	policies := func() []btb.Policy {
		return []btb.Policy{NewLRU(), NewRandom(), NewSRRIP(), NewGHRP(), NewHawkeye(), NewHolisticOnly()}
	}
	for iter := 0; iter < 15; iter++ {
		acc := randomStream(r, 60, 3000)
		sets, ways := 4, 4
		opt := runPolicy(acc, sets, ways, NewOPT(), nil)
		for _, p := range policies() {
			s := runPolicy(acc, sets, ways, p, nil)
			if s.Hits > opt.Hits {
				t.Fatalf("iter %d: %s hits %d > OPT hits %d", iter, p.Name(), s.Hits, opt.Hits)
			}
		}
	}
}

func TestSRRIPPromotesOnHit(t *testing.T) {
	// A (hit often) should survive a scan that LRU would let kill it.
	// Pattern: A A [scan B C D E F G] A ... SRRIP inserts scanning entries
	// with distant RRPV so A (promoted to 0) survives.
	pcs := []uint64{1, 1}
	for rep := 0; rep < 8; rep++ {
		for k := uint64(2); k <= 7; k++ {
			pcs = append(pcs, k)
		}
		pcs = append(pcs, 1)
	}
	acc := stream(pcs)
	srrip := runPolicy(acc, 1, 4, NewSRRIP(), nil)
	lru := runPolicy(acc, 1, 4, NewLRU(), nil)
	if srrip.Hits <= lru.Hits {
		t.Fatalf("SRRIP hits %d <= LRU hits %d on scan pattern", srrip.Hits, lru.Hits)
	}
}

func TestSRRIPBitsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0-bit SRRIP")
		}
	}()
	NewSRRIPBits(0)
}

func TestThermometerBypassUniqueColdest(t *testing.T) {
	p := NewThermometer()
	b := btb.NewWithSets(1, 2, p)
	hot := func(pc uint64) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: 2, NextUse: trace.NoNextUse}
	}
	cold := func(pc uint64) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: 0, NextUse: trace.NoNextUse}
	}
	b.Access(hot(1))
	b.Access(hot(2))
	r := b.Access(cold(3))
	if !r.Bypassed {
		t.Fatal("uniquely-coldest incoming branch was inserted")
	}
	if p.Bypasses != 1 || p.Decisions != 1 || p.Covered != 1 {
		t.Fatalf("thermometer stats = %+v", p)
	}
}

func TestThermometerEvictsColdest(t *testing.T) {
	p := NewThermometer()
	b := btb.NewWithSets(1, 3, p)
	mk := func(pc uint64, temp uint8) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: temp, NextUse: trace.NoNextUse}
	}
	b.Access(mk(1, 2)) // hot
	b.Access(mk(2, 0)) // cold
	b.Access(mk(3, 1)) // warm
	r := b.Access(mk(4, 1))
	if r.Bypassed || r.Evicted.PC != 2 {
		t.Fatalf("victim = %+v, want cold PC 2", r)
	}
}

func TestThermometerTieBreaksLRU(t *testing.T) {
	p := NewThermometer()
	b := btb.NewWithSets(1, 2, p)
	mk := func(pc uint64, temp uint8) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: temp, NextUse: trace.NoNextUse}
	}
	b.Access(mk(1, 1))
	b.Access(mk(2, 1))
	b.Access(mk(1, 1)) // touch 1 → LRU is 2
	r := b.Access(mk(3, 1))
	if r.Evicted.PC != 2 {
		t.Fatalf("victim PC = %d, want LRU (2)", r.Evicted.PC)
	}
	// All candidates same temperature → not covered.
	if p.Covered != 0 || p.Decisions != 1 {
		t.Fatalf("coverage stats = %+v", p)
	}
	if p.Coverage() != 0 {
		t.Fatalf("Coverage() = %v, want 0", p.Coverage())
	}
}

func TestThermometerKeepsHotUnderThrash(t *testing.T) {
	// Working set: 2 hot branches + stream of cold branches, 1 set × 2
	// ways. With temperature hints, hot branches stay resident; LRU
	// thrashes.
	temps := map[uint64]uint8{1: 2, 2: 2}
	pcs := []uint64{1, 2}
	coldPC := uint64(100)
	for rep := 0; rep < 50; rep++ {
		pcs = append(pcs, 1, 2, coldPC)
		coldPC++
	}
	acc := stream(pcs)
	th := runPolicy(acc, 1, 2, NewThermometer(), temps)
	lru := runPolicy(acc, 1, 2, NewLRU(), temps)
	if th.Hits <= lru.Hits {
		t.Fatalf("Thermometer hits %d <= LRU hits %d", th.Hits, lru.Hits)
	}
	// Hot branches after warmup: all 100 accesses to PCs 1,2 hit.
	if th.Hits != 100 {
		t.Fatalf("Thermometer hits = %d, want 100", th.Hits)
	}
}

func TestHolisticOnlyIgnoresRecency(t *testing.T) {
	p := NewHolisticOnly()
	b := btb.NewWithSets(1, 2, p)
	mk := func(pc uint64, temp uint8) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, Temperature: temp, NextUse: trace.NoNextUse}
	}
	b.Access(mk(1, 1))
	b.Access(mk(2, 1))
	b.Access(mk(1, 1)) // hit; FIFO order unchanged
	r := b.Access(mk(3, 1))
	if r.Evicted.PC != 1 {
		t.Fatalf("victim = %d, want FIFO-oldest (1)", r.Evicted.PC)
	}
}

func TestTransientOnlyIsLRU(t *testing.T) {
	r := xrand.New(5)
	acc := randomStream(r, 40, 2000)
	a := runPolicy(acc, 4, 4, NewLRU(), nil)
	b := runPolicy(acc, 4, 4, NewTransientOnly(), nil)
	if a.Hits != b.Hits {
		t.Fatalf("TransientOnly hits %d != LRU hits %d", b.Hits, a.Hits)
	}
	if NewTransientOnly().Name() != "Transient" {
		t.Fatal("wrong ablation name")
	}
}

func TestGHRPLearnsDeadStreams(t *testing.T) {
	// Hot loop of 3 branches + a cycling set of 32 long-reuse-distance
	// ("dead") branches in a 4-way set. Contexts repeat every 32
	// iterations, so GHRP can learn the cycling branches are
	// dead-on-arrival, bypass them, and keep the hot loop resident —
	// whereas LRU thrashes and misses everything.
	pcs := []uint64{}
	for rep := 0; rep < 2000; rep++ {
		pcs = append(pcs, 1, 2, 3, 4, uint64(1000+rep%32))
	}
	acc := stream(pcs)
	ghrp := runPolicy(acc, 1, 4, NewGHRP(), nil)
	lru := runPolicy(acc, 1, 4, NewLRU(), nil)
	random := runPolicy(acc, 1, 4, NewRandom(), nil)
	if ghrp.Hits <= lru.Hits {
		t.Fatalf("GHRP hits %d <= LRU hits %d", ghrp.Hits, lru.Hits)
	}
	if ghrp.Hits <= random.Hits {
		t.Fatalf("GHRP hits %d <= Random hits %d", ghrp.Hits, random.Hits)
	}
}

func TestHawkeyeLearnsFriendlyBranches(t *testing.T) {
	// Same hot-loop + stream pattern: Hawkeye's OPTgen should classify the
	// loop branches friendly and the stream averse.
	pcs := []uint64{}
	coldPC := uint64(1000)
	for rep := 0; rep < 400; rep++ {
		pcs = append(pcs, 1, 2, 3, 4, coldPC)
		coldPC++
	}
	acc := stream(pcs)
	hawkeye := runPolicy(acc, 1, 4, NewHawkeye(), nil)
	lru := runPolicy(acc, 1, 4, NewLRU(), nil)
	if hawkeye.Hits <= lru.Hits {
		t.Fatalf("Hawkeye hits %d <= LRU hits %d", hawkeye.Hits, lru.Hits)
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[btb.Policy]string{
		NewLRU():           "LRU",
		NewRandom():        "Random",
		NewSRRIP():         "SRRIP",
		NewGHRP():          "GHRP",
		NewHawkeye():       "Hawkeye",
		NewOPT():           "OPT",
		NewThermometer():   "Thermometer",
		NewHolisticOnly():  "Holistic",
		NewTransientOnly(): "Transient",
	}
	for p, n := range want {
		if p.Name() != n {
			t.Errorf("Name() = %q, want %q", p.Name(), n)
		}
	}
}

// TestByName pins the name table that thermod specs and btbsim's -policy
// flag share: each of the ten names builds a policy, and an unknown name's
// error lists them all.
func TestByName(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("Names() = %v, want 10 names", names)
	}
	for _, name := range names {
		if f, err := ByName(name); err != nil || f() == nil {
			t.Errorf("ByName(%q) = %v", name, err)
		}
	}
	_, err := ByName("belady")
	const want = `unknown policy "belady" (want one of [ghrp hawkeye holistic lru opt random srrip thermometer thermometer-nobypass transient])`
	if err == nil || err.Error() != want {
		t.Fatalf("ByName(belady) error = %v", err)
	}
}

func TestOPTNeverWorseThanLRUProperty(t *testing.T) {
	r := xrand.New(77)
	for iter := 0; iter < 10; iter++ {
		// Varied geometry each iteration.
		sets := 1 << uint(r.Intn(4))
		ways := 2 + r.Intn(6)
		acc := randomStream(r, 30+r.Intn(100), 2000)
		opt := runPolicy(acc, sets, ways, NewOPT(), nil)
		lru := runPolicy(acc, sets, ways, NewLRU(), nil)
		if opt.Hits < lru.Hits {
			t.Fatalf("iter %d (%d×%d): OPT %d < LRU %d", iter, sets, ways, opt.Hits, lru.Hits)
		}
	}
}
