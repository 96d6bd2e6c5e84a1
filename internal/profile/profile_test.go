package profile

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"thermometer/internal/belady"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Thresholds: nil},
		{Thresholds: []float64{0.5, 0.5}},
		{Thresholds: []float64{0.8, 0.5}},
		{Thresholds: []float64{-0.1}},
		{Thresholds: []float64{1.1}},
		{Thresholds: []float64{0.5}, DefaultCategory: 5},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCategorize(t *testing.T) {
	c := DefaultConfig() // thresholds 0.5, 0.8
	cases := []struct {
		y    float64
		want uint8
	}{
		{0.0, Cold}, {0.5, Cold}, {0.50001, Warm}, {0.8, Warm},
		{0.80001, Hot}, {1.0, Hot},
	}
	for _, tc := range cases {
		if got := c.Categorize(tc.y); got != tc.want {
			t.Errorf("Categorize(%v) = %d, want %d", tc.y, got, tc.want)
		}
	}
}

func TestCategoriesAndHintBits(t *testing.T) {
	cases := []struct {
		thresholds int
		categories int
		bits       int
	}{
		{1, 2, 1}, {2, 3, 2}, {3, 4, 2}, {7, 8, 3}, {15, 16, 4},
	}
	for _, tc := range cases {
		ths := make([]float64, tc.thresholds)
		for i := range ths {
			ths[i] = float64(i+1) / float64(tc.thresholds+1)
		}
		c := Config{Thresholds: ths}
		if c.Categories() != tc.categories {
			t.Errorf("%d thresholds: categories = %d, want %d", tc.thresholds, c.Categories(), tc.categories)
		}
		if c.HintBits() != tc.bits {
			t.Errorf("%d categories: bits = %d, want %d", tc.categories, c.HintBits(), tc.bits)
		}
	}
}

// profiledTrace builds a trace with clearly hot, warm, and cold branches.
func profiledTrace() *trace.Trace {
	tr := &trace.Trace{Name: "p"}
	add := func(pc uint64) {
		tr.Records = append(tr.Records, trace.Record{
			PC: pc, Target: pc + 8, Taken: true, Type: trace.UncondDirect,
		})
	}
	cold := uint64(1000)
	for rep := 0; rep < 100; rep++ {
		add(1) // hot: short reuse, 1 set × 2 ways keeps it
		add(2) // hot
		add(cold)
		cold++
	}
	return tr
}

func TestBuildAndLookup(t *testing.T) {
	tr := profiledTrace()
	ht, res, err := ProfileTrace(tr, 2, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 300 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if got := ht.Lookup(1); got != Hot {
		t.Fatalf("branch 1 category = %d, want hot", got)
	}
	if got := ht.Lookup(1000); got != Cold {
		t.Fatalf("cold branch category = %d, want cold", got)
	}
	// Unprofiled branch falls back to the default (warm).
	if got := ht.Lookup(0xdeadbeef); got != Warm {
		t.Fatalf("unprofiled category = %d, want warm default", got)
	}
	shares := ht.CategoryShares()
	if len(shares) != 3 {
		t.Fatalf("shares = %v", shares)
	}
	sum := shares[0] + shares[1] + shares[2]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares don't sum to 1: %v", shares)
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	res := &belady.Result{}
	if _, err := Build(res, Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := profiledTrace()
	ht, _, err := ProfileTrace(tr, 2, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ht.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ht.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), ht.Len())
	}
	for pc, c := range ht.Hints {
		if got.Hints[pc] != c {
			t.Errorf("pc %d category %d != %d", pc, got.Hints[pc], c)
		}
	}
	if got.Config.DefaultCategory != ht.Config.DefaultCategory {
		t.Error("default category lost")
	}
	if len(got.Config.Thresholds) != 2 || got.Config.Thresholds[0] != 0.5 {
		t.Errorf("thresholds = %v", got.Config.Thresholds)
	}
}

func TestReadHintsRejectsGarbage(t *testing.T) {
	if _, err := ReadHints(bytes.NewReader([]byte("THRMTRC1xxxx"))); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := ReadHints(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestAgreement(t *testing.T) {
	a := &HintTable{Hints: map[uint64]uint8{1: 0, 2: 1, 3: 2}}
	b := &HintTable{Hints: map[uint64]uint8{1: 0, 2: 2, 3: 2, 4: 0}}
	if got := Agreement(a, b); got < 0.66 || got > 0.67 {
		t.Fatalf("agreement = %v, want 2/3", got)
	}
	if Agreement(nil, b) != 0 {
		t.Fatal("nil agreement != 0")
	}
	if Agreement(a, &HintTable{Hints: map[uint64]uint8{9: 0}}) != 0 {
		t.Fatal("disjoint agreement != 0")
	}
}

func TestQuantileThresholds(t *testing.T) {
	res := &belady.Result{}
	for i := 0; i < 100; i++ {
		res.PerBranch = append(res.PerBranch, belady.BranchProfile{
			PC: uint64(i), Taken: 100, Hits: uint64(i),
		})
	}
	ths := QuantileThresholds(res, 4)
	if len(ths) != 3 {
		t.Fatalf("thresholds = %v", ths)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] <= ths[i-1] {
			t.Fatalf("not ascending: %v", ths)
		}
	}
	cfg := Config{Thresholds: ths, DefaultCategory: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("quantile config invalid: %v", err)
	}
	// Roughly equal buckets.
	counts := make([]int, 4)
	for _, b := range res.PerBranch {
		counts[cfg.Categorize(b.HitToTaken())]++
	}
	for i, c := range counts {
		if c < 15 || c > 40 {
			t.Errorf("bucket %d = %d, want ~25", i, c)
		}
	}
}

func TestQuantileThresholdsDegenerate(t *testing.T) {
	// All branches identical ratio: thresholds must still be ascending.
	res := &belady.Result{}
	for i := 0; i < 10; i++ {
		res.PerBranch = append(res.PerBranch, belady.BranchProfile{Taken: 10, Hits: 5})
	}
	ths := QuantileThresholds(res, 4)
	cfg := Config{Thresholds: ths}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("degenerate thresholds invalid: %v (%v)", err, ths)
	}
}

// TestHintsForMemo pins HintsFor's memo: one table per trace, geometry,
// threshold list and default category, each equal to a fresh
// ProfileTrace's, and one build shared by concurrent callers.
func TestHintsForMemo(t *testing.T) {
	spec, _ := workload.App("kafka")
	tr := spec.ScaleLength(1, 64).Generate(0)
	cold := DefaultConfig()
	cold.DefaultCategory = Cold
	cases := []struct {
		name          string
		entries, ways int
		cfg           Config
	}{
		{"default", 8192, 4, DefaultConfig()},
		{"7979", 7979, 4, DefaultConfig()},
		{"8-way", 8192, 8, DefaultConfig()},
		{"thresholds", 8192, 4, Config{Thresholds: []float64{0.3, 0.9}, DefaultCategory: 1}},
		{"cold-default", 8192, 4, cold},
	}
	seen := make(map[*HintTable]string)
	for _, c := range cases {
		ht, err := HintsFor(tr, c.entries, c.ways, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again, _ := HintsFor(tr, c.entries, c.ways, c.cfg); again != ht {
			t.Errorf("%s: repeat call returned a different table", c.name)
		}
		if prev, ok := seen[ht]; ok {
			t.Errorf("%s: shares its table with %s", c.name, prev)
		}
		seen[ht] = c.name
		fresh, _, err := ProfileTrace(tr, c.entries, c.ways, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ht, fresh) {
			t.Errorf("%s: memoized table differs from a fresh ProfileTrace", c.name)
		}
	}
	if _, err := HintsFor(tr, 8192, 4, Config{}); err == nil {
		t.Error("invalid config accepted")
	}

	fresh := spec.ScaleLength(1, 64).Generate(0)
	got := make([]*HintTable, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = HintsFor(fresh, 8192, 4, DefaultConfig())
		}(i)
	}
	wg.Wait()
	for i, ht := range got {
		if ht == nil || ht != got[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", i, ht, got[0])
		}
	}
}
