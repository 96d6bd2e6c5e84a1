package workload

import (
	"testing"

	"thermometer/internal/belady"
	"thermometer/internal/metrics"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/replay"
	"thermometer/internal/trace"
)

func TestAppRoster(t *testing.T) {
	names := AppNames()
	if len(names) != 13 {
		t.Fatalf("apps = %d, want 13", len(names))
	}
	want := map[string]bool{"cassandra": true, "clang": true, "verilator": true, "wordpress": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing apps: %v", want)
	}
	if _, ok := App("cassandra"); !ok {
		t.Fatal("App lookup failed")
	}
	if _, ok := App("nosuchapp"); ok {
		t.Fatal("bogus app found")
	}
}

func TestSpecValidation(t *testing.T) {
	for _, s := range Apps() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
	bad := AppSpec{Name: "x", HotBranches: 0, Kernels: 1, WarmBranches: 100, ColdBranches: 10,
		LoopsPerPhase: 1, MeanBlockLen: 4, CodeFootprint: 1 << 20, Length: 100}
	if bad.Validate() == nil {
		t.Error("zero-hot spec accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec, _ := App("kafka")
	spec = spec.ScaleLength(1, 20)
	a := spec.Generate(0)
	b := spec.Generate(0)
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateInputsDiffer(t *testing.T) {
	spec, _ := App("kafka")
	spec = spec.ScaleLength(1, 20)
	a, b := spec.Generate(0), spec.Generate(1)
	same := 0
	n := min(len(a.Records), len(b.Records))
	for i := 0; i < n; i++ {
		if a.Records[i].PC == b.Records[i].PC {
			same++
		}
	}
	if same > n/2 {
		t.Fatalf("inputs nearly identical: %d/%d same PCs", same, n)
	}
}

func TestGeneratedTraceIsValid(t *testing.T) {
	for _, name := range []string{"cassandra", "verilator", "python"} {
		spec, _ := App(name)
		tr := spec.ScaleLength(1, 10).Generate(0)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tr.Len() != spec.Length/10 {
			t.Errorf("%s: length %d, want %d", name, tr.Len(), spec.Length/10)
		}
	}
}

func TestFootprintExceedsBTB(t *testing.T) {
	// The defining property of the paper's workloads: branch working sets
	// larger than the 8K-entry BTB.
	for _, name := range []string{"cassandra", "clang", "verilator", "wordpress"} {
		spec, _ := App(name)
		tr := spec.ScaleLength(1, 4).Generate(0)
		if uniq := tr.UniqueTakenPCs(); uniq < 10000 {
			t.Errorf("%s: unique taken branches = %d, want > 10000", name, uniq)
		}
	}
}

func TestHotBranchesDominateDynamics(t *testing.T) {
	// Fig 7's property: branches that are hot under OPT account for the
	// large majority of dynamic BTB accesses.
	spec, _ := App("cassandra")
	tr := spec.ScaleLength(1, 2).Generate(0)
	res := belady.Profile(tr.AccessStream(), 8192, 4)
	var hotDyn, totDyn uint64
	for _, b := range res.PerBranch {
		if b.HitToTaken() > 0.8 {
			hotDyn += b.Taken
		}
		totDyn += b.Taken
	}
	if frac := float64(hotDyn) / float64(totDyn); frac < 0.7 {
		t.Fatalf("hot dynamic share = %v, want > 0.7", frac)
	}
}

func TestTransientVarianceExceedsHolistic(t *testing.T) {
	// Fig 5's property.
	spec, _ := App("drupal")
	tr := spec.ScaleLength(1, 4).Generate(0)
	v := metrics.SummarizeVariance(tr.AccessStream(), 2048, 4)
	if v.Branches < 100 {
		t.Fatalf("too few branches with reuse samples: %d", v.Branches)
	}
	if v.Ratio() < 1.3 {
		t.Fatalf("transient/holistic variance ratio = %v, want > 1.3", v.Ratio())
	}
}

func TestPolicyOrdering(t *testing.T) {
	// The paper's central result, in miss-rate terms:
	// LRU >= SRRIP-misses, Thermometer clearly better, OPT best.
	spec, _ := App("kafka")
	tr := spec.ScaleLength(1, 2).Generate(0)
	acc := tr.AccessStream()
	ht, _, err := profile.ProfileTrace(tr, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lru := replay.Run(acc, replay.Options{Entries: 8192, Ways: 4, Policy: policy.NewLRU()})
	srrip := replay.Run(acc, replay.Options{Entries: 8192, Ways: 4, Policy: policy.NewSRRIP()})
	therm := replay.Run(acc, replay.Options{Entries: 8192, Ways: 4, Policy: policy.NewThermometer(), Hints: ht})
	opt := belady.Profile(acc, 8192, 4)

	if srrip.Stats.Misses > lru.Stats.Misses {
		t.Errorf("SRRIP misses %d > LRU %d", srrip.Stats.Misses, lru.Stats.Misses)
	}
	if therm.Stats.Misses >= srrip.Stats.Misses {
		t.Errorf("Thermometer misses %d >= SRRIP %d", therm.Stats.Misses, srrip.Stats.Misses)
	}
	if opt.Misses >= therm.Stats.Misses {
		t.Errorf("OPT misses %d >= Thermometer %d", opt.Misses, therm.Stats.Misses)
	}
	// Thermometer achieves a solid fraction of OPT's miss reduction.
	base := float64(lru.Stats.Misses)
	tRed := base - float64(therm.Stats.Misses)
	oRed := base - float64(opt.Misses)
	if tRed/oRed < 0.35 {
		t.Errorf("Thermometer fraction of OPT reduction = %v, want > 0.35", tRed/oRed)
	}
}

func TestCrossInputTemperatureStability(t *testing.T) {
	// Fig 13's foundation: most branches keep their temperature category
	// across inputs (the paper reports 81%).
	spec, _ := App("postgresql")
	spec = spec.ScaleLength(1, 2)
	t0 := spec.Generate(0)
	t1 := spec.Generate(1)
	h0, _, err := profile.ProfileTrace(t0, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h1, _, err := profile.ProfileTrace(t1, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if agree := profile.Agreement(h0, h1); agree < 0.6 {
		t.Fatalf("cross-input category agreement = %v, want > 0.6", agree)
	}
}

func TestSuiteSpecs(t *testing.T) {
	for _, i := range []int{0, 100, CBP5Count - 1} {
		s := CBP5Spec(i)
		if err := s.Validate(); err != nil {
			t.Errorf("cbp5 %d invalid: %v", i, err)
		}
	}
	for _, i := range []int{0, IPC1Count - 1} {
		s := IPC1Spec(i)
		if err := s.Validate(); err != nil {
			t.Errorf("ipc1 %d invalid: %v", i, err)
		}
	}
	// Distinct traces.
	if CBP5Spec(1).Seed == CBP5Spec(2).Seed {
		t.Error("suite seeds collide")
	}
}

func TestSuiteIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CBP5Spec(CBP5Count)
}

func TestSuiteFootprintSpread(t *testing.T) {
	// The CBP-5 sweep must include both small (compulsory-only) and large
	// working sets.
	small, large := 0, 0
	for i := 0; i < 40; i++ {
		tr := CBP5Spec(i).Generate(0)
		u := tr.UniqueTakenPCs()
		if u < 4096 {
			small++
		}
		if u > 8192 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("footprint spread missing: small=%d large=%d", small, large)
	}
}

func TestSummarize(t *testing.T) {
	tr := &trace.Trace{Name: "x", Records: []trace.Record{
		{PC: 1, Target: 5, Taken: true, Type: trace.UncondDirect, BlockLen: 3},
	}}
	s := Summarize(tr)
	if s.Name != "x" || s.UniqueTaken != 1 || s.DynamicTaken != 1 || s.Instructions != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestScaleLength(t *testing.T) {
	s := AppSpec{Length: 100000}
	if s.ScaleLength(1, 4).Length != 25000 {
		t.Fatal("scale wrong")
	}
	if s.ScaleLength(1, 1000000).Length != 1000 {
		t.Fatal("floor wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
