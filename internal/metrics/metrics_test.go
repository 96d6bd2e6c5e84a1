package metrics

import (
	"math"
	"testing"

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

func TestReuseSequencesSimple(t *testing.T) {
	// Single set. Stream: A B C A → A's reuse distance = 2 (B, C).
	seqs := ReuseSequences(stream([]uint64{10, 11, 12, 10}), 1)
	if got := seqs[10]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("A reuse = %v, want [2]", got)
	}
	if len(seqs[11]) != 0 || len(seqs[12]) != 0 {
		t.Fatal("single-access branches have reuse samples")
	}
}

func TestReuseSequencesRepeats(t *testing.T) {
	// A B B A: unique distinct between A's accesses = 1 (B counted once).
	seqs := ReuseSequences(stream([]uint64{10, 11, 11, 10}), 1)
	if got := seqs[10]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("A reuse = %v, want [1]", got)
	}
	// B's own reuse: zero distinct PCs in between.
	if got := seqs[11]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("B reuse = %v, want [0]", got)
	}
}

func TestReuseSequencesSetScoped(t *testing.T) {
	// 2 sets: PCs 10 (even set) and 11,13 (odd set). Odd traffic must not
	// count toward 10's reuse distance.
	seqs := ReuseSequences(stream([]uint64{10, 11, 13, 10}), 2)
	if got := seqs[10]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("reuse = %v, want [0]", got)
	}
}

func TestReuseSequencesBruteForce(t *testing.T) {
	r := xrand.New(11)
	for iter := 0; iter < 10; iter++ {
		pcs := make([]uint64, 400)
		for i := range pcs {
			pcs[i] = uint64(r.Intn(30) + 1)
		}
		acc := stream(pcs)
		sets := 1 + r.Intn(4)
		got := ReuseSequences(acc, sets)
		// Brute force.
		want := make(map[uint64][]float64)
		last := make(map[uint64]int)
		for i, a := range acc {
			if j, ok := last[a.PC]; ok {
				uniq := map[uint64]bool{}
				for k := j + 1; k < i; k++ {
					if acc[k].PC%uint64(sets) == a.PC%uint64(sets) && acc[k].PC != a.PC {
						uniq[acc[k].PC] = true
					}
				}
				want[a.PC] = append(want[a.PC], float64(len(uniq)))
			}
			last[a.PC] = i
		}
		for pc, w := range want {
			g := got[pc]
			if len(g) != len(w) {
				t.Fatalf("iter %d pc %d: len %d != %d", iter, pc, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("iter %d pc %d sample %d: %v != %v", iter, pc, i, g[i], w[i])
				}
			}
		}
	}
}

func TestVarianceFormulas(t *testing.T) {
	a := []float64{1, 3, 1, 3, 1}
	// Transient: diffs all ±2 → squared 4; 4 pairs / (n-1=4) = 4.
	if got := TransientVariance(a); got != 4 {
		t.Fatalf("transient = %v, want 4", got)
	}
	// Holistic: mean 1.8, deviations (−.8,1.2,−.8,1.2,−.8): sum=4.8 → /5 = 0.96.
	if got := HolisticVariance(a); math.Abs(got-0.96) > 1e-12 {
		t.Fatalf("holistic = %v, want 0.96", got)
	}
	if TransientVariance([]float64{5}) != 0 || HolisticVariance(nil) != 0 {
		t.Fatal("degenerate variances not 0")
	}
}

func TestIIDTransientIsTwiceHolistic(t *testing.T) {
	// For iid samples, E[(a_i − a_{i+1})²] = 2σ² — the statistical root of
	// the paper's >2× observation.
	r := xrand.New(3)
	a := make([]float64, 20000)
	for i := range a {
		a[i] = r.Float64() * 10
	}
	ratio := TransientVariance(a) / HolisticVariance(a)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("iid ratio = %v, want ~2", ratio)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Pearson(x, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := Pearson(x, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant correlation = %v", got)
	}
	if Pearson(x, x[:2]) != 0 {
		t.Fatal("length mismatch not 0")
	}
}

func TestSpearmanAbs(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotonic, nonlinear
	if got := SpearmanAbs(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("monotonic Spearman = %v, want 1", got)
	}
	yr := []float64{25, 16, 9, 4, 1}
	if got := SpearmanAbs(x, yr); math.Abs(got-1) > 1e-12 {
		t.Fatalf("reverse Spearman abs = %v, want 1", got)
	}
	r := xrand.New(5)
	xs, ys := make([]float64, 5000), make([]float64, 5000)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	if got := SpearmanAbs(xs, ys); got > 0.05 {
		t.Fatalf("random Spearman = %v, want ~0", got)
	}
}

func TestRanksTies(t *testing.T) {
	r := ranks([]float64{3, 1, 3})
	// value 1 → rank 0; the two 3s share ranks 1,2 → 1.5.
	if r[1] != 0 || r[0] != 1.5 || r[2] != 1.5 {
		t.Fatalf("ranks = %v", r)
	}
}

func TestCDF(t *testing.T) {
	c := CDF([]float64{1, 1, 2})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF = %v", c)
		}
	}
	if z := CDF([]float64{0, 0}); z[1] != 0 {
		t.Fatalf("zero CDF = %v", z)
	}
}

func TestSummarizeVariancePhaseBehaviour(t *testing.T) {
	// Branch with alternating short/long reuse (phase-like) must show
	// transient variance ≥ holistic variance.
	pcs := []uint64{}
	for rep := 0; rep < 200; rep++ {
		pcs = append(pcs, 1, 2, 3, 1) // short reuse for 1
		for k := uint64(10); k < 18; k++ {
			pcs = append(pcs, k) // long gap before 1 returns
		}
	}
	acc := stream(pcs)
	v := SummarizeVariance(acc, 1, 4)
	if v.Branches == 0 {
		t.Fatal("no branches summarized")
	}
	if v.Ratio() < 1.0 {
		t.Fatalf("variance ratio = %v, want >= 1", v.Ratio())
	}
}

// TestVarianceDivisors locks in the §2.3 estimator choice: with m reuse
// samples, transient variance divides by the number of consecutive
// differences (m−1, the paper's n−2) and holistic variance divides by the
// sample count (m, the paper's n−1). The values below are chosen so every
// rejected alternative divisor produces a different result.
func TestVarianceDivisors(t *testing.T) {
	a := []float64{0, 2}
	// One squared difference of 4, divided by m−1 = 1.
	if got := TransientVariance(a); got != 4 {
		t.Fatalf("transient = %v, want 4 (1/(m−1) over differences); 1/m would give 2", got)
	}
	// Mean 1, squared deviations 1+1 = 2, divided by m = 2.
	if got := HolisticVariance(a); got != 1 {
		t.Fatalf("holistic = %v, want 1 (population 1/m); Bessel 1/(m−1) would give 2", got)
	}

	b := []float64{1, 2, 6}
	// Differences −1, −4 → 1+16 = 17, over m−1 = 2 → 8.5.
	if got := TransientVariance(b); got != 8.5 {
		t.Fatalf("transient = %v, want 8.5", got)
	}
	// Mean 3, deviations −2, −1, 3 → 4+1+9 = 14, over m = 3.
	if got, want := HolisticVariance(b), 14.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("holistic = %v, want %v", got, want)
	}
}
