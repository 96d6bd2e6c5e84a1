// Package bpred implements conditional branch direction predictors for the
// frontend model: a bimodal table, gshare, and a TAGE predictor sized to
// approximate the 64KB TAGE-SC-L of the paper's Table 1. The simulator only
// needs realistic *misprediction rates*, so the statistical-corrector and
// loop-predictor stages of full TAGE-SC-L are omitted (documented
// substitution in DESIGN.md).
package bpred

import "thermometer/internal/xrand"

// Predictor is a conditional-branch direction predictor. The caller must
// invoke Update exactly once after each Predict for the same branch, in
// program order.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted direction for the conditional branch
	// at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// Bimodal is a PC-indexed table of 2-bit saturating counters.
type Bimodal struct {
	ctr  []uint8
	mask uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize counters.
func NewBimodal(logSize int) *Bimodal {
	return &Bimodal{ctr: make([]uint8, 1<<logSize), mask: 1<<logSize - 1}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 1) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.ctr[b.idx(pc)] >= 2 }

// Update implements Predictor.
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

// Gshare XORs global history into the table index.
type Gshare struct {
	ctr     []uint8
	mask    uint64
	history uint64
	bits    uint
}

// NewGshare returns a gshare predictor with 2^logSize counters and logSize
// bits of global history.
func NewGshare(logSize int) *Gshare {
	return &Gshare{ctr: make([]uint8, 1<<logSize), mask: 1<<logSize - 1, bits: uint(logSize)}
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

func (g *Gshare) idx(pc uint64) uint64 { return ((pc >> 1) ^ g.history) & g.mask }

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.ctr[g.idx(pc)] >= 2 }

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ Predictor = (*Bimodal)(nil)
var _ Predictor = (*Gshare)(nil)
var _ = xrand.Mix64 // used by tage.go in this package
