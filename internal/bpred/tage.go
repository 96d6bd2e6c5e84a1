package bpred

import "thermometer/internal/xrand"

// TAGE is a TAgged GEometric-history-length predictor (Seznec), the
// workhorse of modern direction prediction and the core of the TAGE-SC-L
// configuration in Table 1. A bimodal base table provides the default
// prediction; tagged components indexed with geometrically growing history
// lengths override it when a tag matches. On a misprediction, a longer-
// history entry is allocated; `useful` counters protect entries that have
// provided correct predictions.
type TAGE struct {
	base *Bimodal

	comps []tageComp
	// Folded global history (one folding per component for index and tag).
	ghist []uint8 // circular raw history bits
	hpos  int

	// Allocation randomness (deterministic stream).
	rng *xrand.RNG

	// Prediction bookkeeping between Predict and Update.
	provider  int // component index providing the prediction (-1 = base)
	altPred   bool
	predIdx   []uint64
	predTag   []uint64
	predTaken bool

	// useAltOnNewlyAlloc biases toward the alternate prediction when the
	// provider entry is freshly allocated (standard TAGE refinement).
	useAlt int8
}

type tageComp struct {
	histLen int
	logSize int
	tagBits int
	entries []tageEntry

	idxFold  foldedHistory
	tagFold  foldedHistory
	tagFold2 foldedHistory
}

// tageEntry is laid out tag-first so the struct packs into 4 bytes (the
// natural field order pads to 6): the tables are scanned every lookup, and
// a third less table footprint is measurable.
type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed counter [-4, 3]; >= 0 predicts taken
	useful uint8 // 2-bit
}

// foldedHistory compresses the most recent histLen bits of history into
// bits output bits, updated incrementally in O(1) per branch. The shift at
// which the oldest bit falls out (histLen mod bits) and the output mask are
// precomputed: update runs 24 times per branch (8 components × 3 folds), so
// per-call divisions are measurable.
type foldedHistory struct {
	value    uint64
	bits     uint
	outShift uint   // histLen % bits
	mask     uint64 // 1<<bits - 1
}

func newFoldedHistory(histLen, bits int) foldedHistory {
	return foldedHistory{
		bits:     uint(bits),
		outShift: uint(histLen % bits),
		mask:     1<<uint(bits) - 1,
	}
}

func (f *foldedHistory) update(newBit, oldest uint8) {
	// Insert the new bit, remove the bit that falls off the end.
	f.value = (f.value << 1) | uint64(newBit)
	f.value ^= uint64(oldest) << f.outShift
	f.value ^= f.value >> f.bits
	f.value &= f.mask
}

// DefaultTAGEConfig returns component geometry approximating a 64KB budget:
// 8 tagged components with history lengths 4..160.
func defaultTAGEComps() []tageComp {
	histLens := []int{4, 8, 14, 24, 40, 64, 101, 160}
	comps := make([]tageComp, len(histLens))
	for i, h := range histLens {
		comps[i] = tageComp{histLen: h, logSize: 11, tagBits: 9 + i/2}
	}
	return comps
}

// NewTAGE returns a TAGE predictor with the default (Table 1-scale)
// configuration.
func NewTAGE() *TAGE {
	t := &TAGE{
		base:  NewBimodal(14),
		comps: defaultTAGEComps(),
		ghist: make([]uint8, 1024),
		rng:   xrand.New(0x7A6E),
	}
	for i := range t.comps {
		c := &t.comps[i]
		c.entries = make([]tageEntry, 1<<c.logSize)
		c.idxFold = newFoldedHistory(c.histLen, c.logSize)
		c.tagFold = newFoldedHistory(c.histLen, c.tagBits)
		c.tagFold2 = newFoldedHistory(c.histLen, c.tagBits-1)
	}
	t.predIdx = make([]uint64, len(t.comps))
	t.predTag = make([]uint64, len(t.comps))
	return t
}

func (t *TAGE) index(pc uint64, c *tageComp) uint64 {
	h := (pc >> 1) ^ (pc >> uint(c.logSize+1)) ^ c.idxFold.value
	return h & (1<<c.logSize - 1)
}

func (t *TAGE) tag(pc uint64, c *tageComp) uint64 {
	h := (pc >> 1) ^ c.tagFold.value ^ (c.tagFold2.value << 1)
	return h & (1<<c.tagBits - 1)
}

// Predict returns the predicted direction for the conditional branch at pc.
// The caller must call Update exactly once after each Predict for the same
// branch, in program order.
func (t *TAGE) Predict(pc uint64) bool {
	t.provider = -1
	alt := -1
	for i := range t.comps {
		c := &t.comps[i]
		t.predIdx[i] = t.index(pc, c)
		t.predTag[i] = t.tag(pc, c)
		if c.entries[t.predIdx[i]].tag == uint16(t.predTag[i]) {
			alt = t.provider
			t.provider = i
		}
	}
	basePred := t.base.Predict(pc)
	t.altPred = basePred
	if alt >= 0 {
		t.altPred = t.comps[alt].entries[t.predIdx[alt]].ctr >= 0
	}
	if t.provider >= 0 {
		e := &t.comps[t.provider].entries[t.predIdx[t.provider]]
		// Weak, never-useful entries defer to the alternate prediction
		// when the use-alt counter suggests so.
		if t.useAlt >= 0 && e.useful == 0 && (e.ctr == 0 || e.ctr == -1) {
			t.predTaken = t.altPred
		} else {
			t.predTaken = e.ctr >= 0
		}
	} else {
		t.predTaken = basePred
	}
	return t.predTaken
}

// Update trains the predictor with the resolved direction of the branch
// last passed to Predict.
func (t *TAGE) Update(pc uint64, taken bool) {
	correct := t.predTaken == taken

	if t.provider >= 0 {
		e := &t.comps[t.provider].entries[t.predIdx[t.provider]]
		providerPred := e.ctr >= 0
		// Track whether deferring to alt would have helped.
		if e.useful == 0 && (e.ctr == 0 || e.ctr == -1) && providerPred != t.altPred {
			if t.altPred == taken && t.useAlt < 7 {
				t.useAlt++
			} else if t.altPred != taken && t.useAlt > -8 {
				t.useAlt--
			}
		}
		// Useful bit: provider correct and alternate wrong.
		if providerPred == taken && t.altPred != taken && e.useful < 3 {
			e.useful++
		}
		updateCtr(&e.ctr, taken)
		// Also train the base when the provider entry is weak.
		if e.useful == 0 {
			t.base.Update(pc, taken)
		}
	} else {
		t.base.Update(pc, taken)
	}

	// Allocate on misprediction in a longer-history component.
	if !correct && t.provider < len(t.comps)-1 {
		t.allocate(pc, taken)
	}

	t.pushHistory(taken)
}

func (t *TAGE) allocate(pc uint64, taken bool) {
	start := t.provider + 1
	// Find candidate components with useful == 0; allocate in up to one,
	// preferring shorter history with probabilistic skipping (as in the
	// reference implementation, which decrements u otherwise).
	for i := start; i < len(t.comps); i++ {
		e := &t.comps[i].entries[t.predIdx[i]]
		if e.useful == 0 {
			// Probabilistically skip to spread allocations.
			if i+1 < len(t.comps) && t.rng.Bool(0.33) {
				continue
			}
			e.tag = uint16(t.predTag[i])
			e.useful = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// No free entry: age the useful counters on this path.
	for i := start; i < len(t.comps); i++ {
		e := &t.comps[i].entries[t.predIdx[i]]
		if e.useful > 0 {
			e.useful--
		}
	}
}

func updateCtr(c *int8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}

func (t *TAGE) pushHistory(taken bool) {
	bit := uint8(b2u(taken))
	ringMask := len(t.ghist) - 1 // ghist length is a power of two
	t.hpos = (t.hpos + 1) & ringMask
	t.ghist[t.hpos] = bit
	for i := range t.comps {
		c := &t.comps[i]
		// The three folds of one component share a history length, so the
		// bit falling off the end is fetched once.
		oldest := t.ghist[(t.hpos-c.histLen+len(t.ghist))&ringMask]
		c.idxFold.update(bit, oldest)
		c.tagFold.update(bit, oldest)
		c.tagFold2.update(bit, oldest)
	}
}
