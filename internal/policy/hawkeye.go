package policy

import (
	"thermometer/internal/btb"
	"thermometer/internal/xrand"
)

// Hawkeye adapts Jain & Lin's Hawkeye replacement (ISCA 2016) to the BTB,
// as the paper does for its comparison. Hawkeye reconstructs what Belady's
// OPT *would have done* over a recent window of accesses to a few sampled
// sets (the "OPTgen" structure), and trains a PC-indexed classifier: a
// branch whose past accesses OPT would have hit is "BTB-friendly", one it
// would have missed is "BTB-averse". Replacement evicts averse entries
// first; evicting a friendly entry detrains its classifier counter.
//
// Because the classifier's evidence comes from a short sliding window, it
// captures only *transient* behaviour — the paper's explanation for why
// Hawkeye falls short on data center applications (§2.3).
type Hawkeye struct {
	ways int

	// Classifier: 3-bit saturating counters indexed by hashed branch PC.
	counters []uint8

	// Per-entry state.
	averse []bool // prediction recorded at insert/last hit
	pcOf   []uint64

	// OPTgen samplers, one per sampled set.
	samplers  map[int]*optgen
	sampleLog int // sample sets where set % (1<<sampleLog) == 0

	lru lruState

	averseScratch []int // scratch: averse candidate ways, reused per decision

	// Decision counters for telemetry (see Instrumented).
	AverseEvictions   uint64 // victims taken from the averse pool
	FriendlyEvictions uint64 // all-friendly sets: LRU eviction + detrain
}

const (
	hawkCtrMax      = 7
	hawkCtrInit     = 4 // weakly friendly
	hawkCounterBits = 13
)

// optgen models OPT's behaviour over a sliding window for one set.
type optgen struct {
	window   int
	occ      []uint16       // occupancy per quantum, circular
	lastSeen map[uint64]int // PC -> absolute quantum of last access
	now      int
	capacity uint16
}

func newOptgen(ways int) *optgen {
	w := 8 * ways
	return &optgen{
		window:   w,
		occ:      make([]uint16, w),
		lastSeen: make(map[uint64]int),
		capacity: uint16(ways),
	}
}

// access records an access to pc and reports (hit, known): hit is whether
// OPT would have kept pc cached since its previous access; known is false
// for first-in-window accesses, which carry no training signal.
func (g *optgen) access(pc uint64) (hit, known bool) {
	prev, seen := g.lastSeen[pc]
	hit, known = g.liveness(prev, seen)
	// Epilogue (formerly deferred): advance the window and retire the
	// quantum that just fell out of it.
	g.lastSeen[pc] = g.now
	g.now++
	g.occ[g.now%g.window] = 0
	if g.now%g.window == 0 && len(g.lastSeen) > 4*g.window {
		// Forget stale PCs so the map stays bounded.
		for k, v := range g.lastSeen {
			if g.now-v >= g.window {
				delete(g.lastSeen, k)
			}
		}
	}
	return hit, known
}

// liveness decides OPT's verdict for an access whose previous occurrence
// was at quantum prev. The occupancy walk keeps a wrapped index instead of
// reducing the absolute quantum each step: the window spans at most
// g.window quanta, so one conditional reset per step replaces two integer
// divisions.
func (g *optgen) liveness(prev int, seen bool) (hit, known bool) {
	if !seen || g.now-prev >= g.window {
		return false, false
	}
	// OPT hits iff every quantum in (prev, now) still has spare capacity.
	i := prev % g.window
	for t := prev; t < g.now; t++ {
		if g.occ[i] >= g.capacity {
			return false, true
		}
		if i++; i == g.window {
			i = 0
		}
	}
	i = prev % g.window
	for t := prev; t < g.now; t++ {
		g.occ[i]++
		if i++; i == g.window {
			i = 0
		}
	}
	return true, true
}

// NewHawkeye returns a Hawkeye policy adapted to the BTB.
func NewHawkeye() *Hawkeye { return &Hawkeye{} }

// Name implements btb.Policy.
func (p *Hawkeye) Name() string { return "Hawkeye" }

// Reset implements btb.Policy.
func (p *Hawkeye) Reset(sets, ways int) {
	p.ways = ways
	p.counters = make([]uint8, 1<<hawkCounterBits)
	for i := range p.counters {
		p.counters[i] = hawkCtrInit
	}
	p.averse = make([]bool, sets*ways)
	p.pcOf = make([]uint64, sets*ways)
	p.samplers = make(map[int]*optgen)
	// Sample roughly 1 in 8 sets (at least 1).
	p.sampleLog = 3
	if sets < 8 {
		p.sampleLog = 0
	}
	p.lru.reset(sets, ways)
	p.averseScratch = make([]int, 0, ways)
	p.AverseEvictions, p.FriendlyEvictions = 0, 0
}

func (p *Hawkeye) counterIdx(pc uint64) int {
	return int(xrand.Mix64(pc) & (1<<hawkCounterBits - 1))
}

func (p *Hawkeye) friendly(pc uint64) bool {
	return p.counters[p.counterIdx(pc)] >= 4
}

// observe feeds sampled sets through OPTgen and trains the classifier.
func (p *Hawkeye) observe(set int, pc uint64) {
	if set&(1<<p.sampleLog-1) != 0 {
		return
	}
	g := p.samplers[set]
	if g == nil {
		g = newOptgen(p.ways)
		p.samplers[set] = g
	}
	hit, known := g.access(pc)
	if !known {
		return
	}
	i := p.counterIdx(pc)
	if hit {
		if p.counters[i] < hawkCtrMax {
			p.counters[i]++
		}
	} else if p.counters[i] > 0 {
		p.counters[i]--
	}
}

// OnHit implements btb.Policy: a hit proves the entry reusable in this
// generation, so it is promoted to friendly regardless of the classifier
// (the analogue of Hawkeye's RRPV promotion on hit).
func (p *Hawkeye) OnHit(set, way int, req *btb.Request) {
	p.observe(set, req.PC)
	i := set*p.ways + way
	p.averse[i] = false
	p.lru.touch(set, way)
}

// OnInsert implements btb.Policy.
func (p *Hawkeye) OnInsert(set, way int, req *btb.Request) {
	p.observe(set, req.PC)
	i := set*p.ways + way
	p.averse[i] = !p.friendly(req.PC)
	p.pcOf[i] = req.PC
	p.lru.touch(set, way)
}

// Victim implements btb.Policy: evict an averse entry (LRU among them); if
// all residents are friendly, evict the LRU entry and detrain its PC. Like
// cache Hawkeye, insertion always happens — averse entries are merely first
// in line for eviction.
func (p *Hawkeye) Victim(set int, _ *btb.Request) int {
	base := set * p.ways
	averseWays := p.averseScratch[:0]
	for w := 0; w < p.ways; w++ {
		if p.averse[base+w] {
			averseWays = append(averseWays, w)
		}
	}
	p.averseScratch = averseWays
	if len(averseWays) > 0 {
		p.AverseEvictions++
		return p.lru.lruAmong(set, averseWays)
	}
	p.FriendlyEvictions++
	victim := p.lru.lruWay(set)
	// Detrain: OPT would not have evicted a friendly line; the classifier
	// over-promised for this PC.
	if ci := p.counterIdx(p.pcOf[base+victim]); p.counters[ci] > 0 {
		p.counters[ci]--
	}
	return victim
}

// TelemetryCounters implements Instrumented.
func (p *Hawkeye) TelemetryCounters() map[string]uint64 {
	return map[string]uint64{
		"hawkeye_averse_evictions":   p.AverseEvictions,
		"hawkeye_friendly_evictions": p.FriendlyEvictions,
	}
}

var _ btb.Policy = (*Hawkeye)(nil)
var _ Instrumented = (*Hawkeye)(nil)
