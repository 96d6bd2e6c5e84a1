// Package bpred implements the frontend model's conditional branch direction
// predictor: a TAGE predictor over a bimodal base table, sized to
// approximate the 64KB TAGE-SC-L of the paper's Table 1. The simulator only
// needs realistic *misprediction rates*, so the statistical-corrector and
// loop-predictor stages of full TAGE-SC-L are omitted (documented
// substitution in DESIGN.md).
package bpred

// Bimodal is a PC-indexed table of 2-bit saturating counters.
type Bimodal struct {
	ctr  []uint8
	mask uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize counters.
func NewBimodal(logSize int) *Bimodal {
	return &Bimodal{ctr: make([]uint8, 1<<logSize), mask: 1<<logSize - 1}
}

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 1) & b.mask }

// Predict returns the predicted direction for the conditional branch at pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.ctr[b.idx(pc)] >= 2 }

// Update trains the counter of the branch at pc with its resolved
// direction.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.idx(pc)
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
