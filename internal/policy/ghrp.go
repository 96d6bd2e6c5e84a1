package policy

import (
	"thermometer/internal/btb"
	"thermometer/internal/xrand"
)

// GHRP implements the Global History Reuse Predictor of Ajorpaz et al.
// (ISCA 2018), the only prior replacement policy designed specifically for
// the BTB. It predicts *dead* BTB entries — entries that will not hit again
// before eviction — from a signature combining the branch PC with the global
// history of recent BTB accesses. A skewed three-table predictor of
// saturating counters votes on deadness; signatures are trained toward
// alive on hits and toward dead when an entry is evicted without ever
// hitting. Replacement evicts the most confidently dead entry (falling back
// to LRU when no entry is predicted dead), and an incoming branch predicted
// dead-on-arrival with high confidence bypasses the BTB.
type GHRP struct {
	tables  [ghrpTables][]uint8
	history uint64
	ways    int
	// sig stores, per entry, the signature under which the entry was last
	// accessed — the same signature a future dead-on-arrival check for the
	// same (PC, history) context computes, so training transfers.
	sig        []uint64
	hitSince   []bool
	lru        lruState
	deadThresh int
	passThresh int

	// Decision counters for telemetry (see Instrumented).
	Bypasses      uint64 // dead-on-arrival insertions declined
	DeadEvictions uint64 // victims chosen by a confident dead prediction
	LRUFallbacks  uint64 // victims chosen by the LRU fallback
}

const (
	ghrpTables    = 3
	ghrpTableSize = 1 << 12
	ghrpCtrMax    = 7
)

// NewGHRP returns a GHRP policy with the default thresholds.
func NewGHRP() *GHRP {
	return &GHRP{deadThresh: 12, passThresh: 18}
}

// Name implements btb.Policy.
func (p *GHRP) Name() string { return "GHRP" }

// Reset implements btb.Policy.
func (p *GHRP) Reset(sets, ways int) {
	for t := range p.tables {
		p.tables[t] = make([]uint8, ghrpTableSize)
	}
	p.history = 0
	p.ways = ways
	p.sig = make([]uint64, sets*ways)
	p.hitSince = make([]bool, sets*ways)
	p.lru.reset(sets, ways)
	p.Bypasses, p.DeadEvictions, p.LRUFallbacks = 0, 0, 0
}

// signature hashes the PC with the current global history.
func (p *GHRP) signature(pc uint64) uint64 {
	return xrand.Mix64(pc ^ (p.history << 1))
}

// tableIndex skews the signature differently per table.
func tableIndex(sig uint64, table int) int {
	return int((sig >> (uint(table) * 13)) & (ghrpTableSize - 1))
}

// vote sums the three counters for a signature.
func (p *GHRP) vote(sig uint64) int {
	v := 0
	for t := 0; t < ghrpTables; t++ {
		v += int(p.tables[t][tableIndex(sig, t)])
	}
	return v
}

// train moves the counters for sig toward dead (true) or alive (false).
func (p *GHRP) train(sig uint64, dead bool) {
	for t := 0; t < ghrpTables; t++ {
		i := tableIndex(sig, t)
		c := p.tables[t][i]
		if dead {
			if c < ghrpCtrMax {
				p.tables[t][i] = c + 1
			}
		} else if c > 0 {
			p.tables[t][i] = c - 1
		}
	}
}

func (p *GHRP) pushHistory(pc uint64) {
	p.history = (p.history << 5) ^ (xrand.Mix64(pc) & 0xffff)
}

// OnHit implements btb.Policy: the entry proved alive — train the signature
// it was stamped with toward alive, then re-stamp it in the current context.
func (p *GHRP) OnHit(set, way int, req *btb.Request) {
	i := set*p.ways + way
	p.train(p.sig[i], false)
	p.sig[i] = p.signature(req.PC) // stamp before advancing history
	p.pushHistory(req.PC)
	p.hitSince[i] = true
	p.lru.touch(set, way)
}

// OnInsert implements btb.Policy.
func (p *GHRP) OnInsert(set, way int, req *btb.Request) {
	i := set*p.ways + way
	p.sig[i] = p.signature(req.PC) // stamp before advancing history
	p.pushHistory(req.PC)
	p.hitSince[i] = false
	p.lru.touch(set, way)
}

// Victim implements btb.Policy.
func (p *GHRP) Victim(set int, req *btb.Request) int {
	base := set * p.ways
	bestWay, bestVote := 0, -1
	for w := 0; w < p.ways; w++ {
		if v := p.vote(p.sig[base+w]); v > bestVote {
			bestWay, bestVote = w, v
		}
	}
	// Dead-on-arrival bypass: the incoming branch's context predicts it
	// will not be reused, and no resident is as confidently dead. The
	// incoming access still advances history so contexts stay aligned.
	if inVote := p.vote(p.signature(req.PC)); inVote >= p.passThresh && inVote >= bestVote {
		p.pushHistory(req.PC)
		p.Bypasses++
		return btb.Bypass
	}
	victim := bestWay
	if bestVote < p.deadThresh {
		// No confident dead prediction: fall back to LRU.
		victim = p.lru.lruWay(set)
		p.LRUFallbacks++
	} else {
		p.DeadEvictions++
	}
	if !p.hitSince[base+victim] {
		p.train(p.sig[base+victim], true)
	}
	return victim
}

// TelemetryCounters implements Instrumented.
func (p *GHRP) TelemetryCounters() map[string]uint64 {
	return map[string]uint64{
		"ghrp_bypasses":       p.Bypasses,
		"ghrp_dead_evictions": p.DeadEvictions,
		"ghrp_lru_fallbacks":  p.LRUFallbacks,
	}
}

var _ btb.Policy = (*GHRP)(nil)
var _ Instrumented = (*GHRP)(nil)
