package bpred

import (
	"testing"

	"thermometer/internal/xrand"
)

// predictor is the Predict/Update protocol TAGE, its bimodal base and the
// gshare reference below share.
type predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// gshare XORs global history into a table of 2-bit counters: the classic
// predictor TAGE is measured against.
type gshare struct {
	ctr     []uint8
	mask    uint64
	history uint64
}

// newGshare returns a gshare predictor with 2^logSize counters and logSize
// bits of global history.
func newGshare(logSize int) *gshare {
	return &gshare{ctr: make([]uint8, 1<<logSize), mask: 1<<logSize - 1}
}

func (g *gshare) idx(pc uint64) uint64 { return ((pc >> 1) ^ g.history) & g.mask }

func (g *gshare) Predict(pc uint64) bool { return g.ctr[g.idx(pc)] >= 2 }

func (g *gshare) Update(pc uint64, taken bool) {
	i := g.idx(pc)
	if taken {
		if g.ctr[i] < 3 {
			g.ctr[i]++
		}
	} else if g.ctr[i] > 0 {
		g.ctr[i]--
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// run feeds a (pc, outcome) stream and returns the accuracy.
func run(p predictor, seq []struct {
	pc    uint64
	taken bool
}) float64 {
	correct := 0
	for _, s := range seq {
		if p.Predict(s.pc) == s.taken {
			correct++
		}
		p.Update(s.pc, s.taken)
	}
	return float64(correct) / float64(len(seq))
}

type ev = struct {
	pc    uint64
	taken bool
}

func biasedSeq(r *xrand.RNG, n int) []ev {
	// 64 branches with strong static biases.
	bias := make([]float64, 64)
	for i := range bias {
		if r.Bool(0.5) {
			bias[i] = 0.95
		} else {
			bias[i] = 0.05
		}
	}
	seq := make([]ev, n)
	for i := range seq {
		b := r.Intn(64)
		seq[i] = ev{pc: uint64(b*8 + 0x1000), taken: r.Bool(bias[b])}
	}
	return seq
}

func patternSeq(n int) []ev {
	// One branch with period-3 pattern T T N — bimodal can't learn it,
	// history-based predictors can.
	seq := make([]ev, n)
	for i := range seq {
		seq[i] = ev{pc: 0x2000, taken: i%3 != 2}
	}
	return seq
}

func correlatedSeq(r *xrand.RNG, n int) []ev {
	// Branch B's outcome equals branch A's previous outcome: pure global
	// history correlation.
	seq := make([]ev, 0, n)
	prevA := false
	for len(seq) < n {
		a := r.Bool(0.5)
		seq = append(seq, ev{pc: 0x3000, taken: a})
		seq = append(seq, ev{pc: 0x3008, taken: prevA})
		prevA = a
	}
	return seq[:n]
}

func TestBimodalLearnsBias(t *testing.T) {
	r := xrand.New(1)
	acc := run(NewBimodal(12), biasedSeq(r, 20000))
	if acc < 0.90 {
		t.Fatalf("bimodal accuracy on biased branches = %v, want >= 0.90", acc)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	bi := run(NewBimodal(12), patternSeq(9000))
	gs := run(newGshare(14), patternSeq(9000))
	if gs < 0.95 {
		t.Fatalf("gshare pattern accuracy = %v, want >= 0.95", gs)
	}
	if gs <= bi {
		t.Fatalf("gshare %v <= bimodal %v on pattern", gs, bi)
	}
}

func TestTAGELearnsPattern(t *testing.T) {
	acc := run(NewTAGE(), patternSeq(9000))
	if acc < 0.95 {
		t.Fatalf("TAGE pattern accuracy = %v, want >= 0.95", acc)
	}
}

func TestTAGELearnsCorrelation(t *testing.T) {
	r := xrand.New(2)
	seq := correlatedSeq(r, 30000)
	bi := run(NewBimodal(12), seq)
	tg := run(NewTAGE(), seq)
	// Half the stream (branch A) is a fair coin, so the theoretical
	// ceiling is 75%: B is fully determined by history, A is random.
	if tg < 0.72 {
		t.Fatalf("TAGE correlated accuracy = %v, want >= 0.72 (ceiling 0.75)", tg)
	}
	if tg <= bi+0.15 {
		t.Fatalf("TAGE %v not clearly above bimodal %v on correlated stream", tg, bi)
	}
}

func TestTAGEBeatsGshareOnMixedWorkload(t *testing.T) {
	r := xrand.New(3)
	var seq []ev
	seq = append(seq, biasedSeq(r, 20000)...)
	seq = append(seq, correlatedSeq(r, 20000)...)
	seq = append(seq, patternSeq(20000)...)
	gs := run(newGshare(14), append([]ev(nil), seq...))
	tg := run(NewTAGE(), append([]ev(nil), seq...))
	if tg < gs {
		t.Fatalf("TAGE %v < gshare %v on mixed workload", tg, gs)
	}
}

func TestTAGEMispredictRate(t *testing.T) {
	if rate := 1 - run(NewTAGE(), biasedSeq(xrand.New(4), 5000)); rate <= 0 || rate >= 0.5 {
		t.Fatalf("mispredict rate = %v", rate)
	}
}
