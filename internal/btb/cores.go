package btb

// This file holds the concrete replacement cores the BTB can dispatch to
// directly, bypassing the Policy interface on the per-access hot path.
//
// The contract: a policy type that embeds one of these cores and exposes it
// through the matching Fast* accessor gets devirtualized dispatch — the BTB
// type-switches ONCE at construction and thereafter calls the core's methods
// directly (inlineable, no interface call, no escaping arguments). The
// policy's interface methods (OnHit/OnInsert/Victim) must delegate to the
// same core instance, so a caller that drives the policy through its
// interface observes and mutates identical state. Both dispatch paths
// report the same telemetry probe events. Policies without a fast path
// (GHRP, Hawkeye, ablations, external experiments) keep working unchanged
// through the interface; it remains the extension point.

// LRUFastPath is implemented by policies whose replacement decisions are
// exactly LRU over per-way touch timestamps.
type LRUFastPath interface{ FastLRU() *LRUCore }

// SRRIPFastPath is implemented by policies that are exactly SRRIP.
type SRRIPFastPath interface{ FastSRRIP() *SRRIPCore }

// ThermometerFastPath is implemented by policies that are exactly
// Algorithm 1 (temperature-guided victim with LRU tie break and bypass).
type ThermometerFastPath interface{ FastThermometer() *ThermometerCore }

// OPTFastPath is implemented by policies that are exactly Belady's OPT
// with bypass over Request.NextUse oracles.
type OPTFastPath interface{ FastOPT() *OPTCore }

// LRUCore is the shared recency building block: per-way last-touch
// timestamps with a monotonic clock.
type LRUCore struct {
	stamp []uint64
	ways  int
	clock uint64
}

// Reset sizes the core for a sets×ways geometry and clears all state.
func (l *LRUCore) Reset(sets, ways int) {
	l.stamp = make([]uint64, sets*ways)
	l.ways = ways
	l.clock = 0
}

// Touch marks (set, way) as most recently used.
func (l *LRUCore) Touch(set, way int) {
	l.clock++
	l.stamp[set*l.ways+way] = l.clock
}

// LRUWay returns the least recently touched way of set.
func (l *LRUCore) LRUWay(set int) int {
	base := set * l.ways
	best, bestStamp := 0, l.stamp[base]
	for w := 1; w < l.ways; w++ {
		if s := l.stamp[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// LRUAmong returns the least recently touched way among candidates
// (candidates must be non-empty).
func (l *LRUCore) LRUAmong(set int, candidates []int) int {
	base := set * l.ways
	best := candidates[0]
	for _, w := range candidates[1:] {
		if l.stamp[base+w] < l.stamp[base+best] {
			best = w
		}
	}
	return best
}

// SRRIPCore implements Static Re-Reference Interval Prediction (Jaleel et
// al., ISCA 2010): M-bit re-reference prediction values per way, "long"
// insertion, "near-immediate" hit promotion, evict-first-distant with
// whole-set aging.
type SRRIPCore struct {
	bits int
	max  uint8 // distant value = 2^bits − 1
	rrpv []uint8
	ways int

	// AgingRounds counts whole-set RRPV aging sweeps — a measure of how
	// often no entry is already predicted distant.
	AgingRounds uint64
}

// NewSRRIPCore returns an SRRIP core with M-bit RRPVs.
func NewSRRIPCore(m int) SRRIPCore {
	if m < 1 || m > 8 {
		panic("btb: SRRIP bits out of range")
	}
	return SRRIPCore{bits: m, max: uint8(1<<m - 1)}
}

// Reset sizes the core and marks every way distant.
func (c *SRRIPCore) Reset(sets, ways int) {
	c.rrpv = make([]uint8, sets*ways)
	for i := range c.rrpv {
		c.rrpv[i] = c.max
	}
	c.ways = ways
	c.AgingRounds = 0
}

// Promote is the hit action: re-reference predicted near-immediate.
func (c *SRRIPCore) Promote(set, way int) {
	c.rrpv[set*c.ways+way] = 0
}

// InsertLong is the insert action: a long re-reference interval, so a
// branch only earns retention by being re-taken.
func (c *SRRIPCore) InsertLong(set, way int) {
	c.rrpv[set*c.ways+way] = c.max - 1
}

// SelectVictim returns the first way predicted distant, aging the whole
// set until one exists.
func (c *SRRIPCore) SelectVictim(set int) int {
	base := set * c.ways
	for {
		for w := 0; w < c.ways; w++ {
			if c.rrpv[base+w] == c.max {
				return w
			}
		}
		for w := 0; w < c.ways; w++ {
			c.rrpv[base+w]++
		}
		c.AgingRounds++
	}
}

// ThermometerCore implements Algorithm 1 of the paper: replacement guided
// by the profile-injected temperature hint (holistic behaviour) with LRU
// tie breaking (transient behaviour) and bypass of uniquely-coldest
// incoming branches.
type ThermometerCore struct {
	LRU LRUCore

	// NoBypass disables Algorithm 1's bypass (line 5-6) for the ablation
	// study of §2.5: a uniquely-coldest incoming branch is then inserted
	// over the coldest (LRU-tie-broken) resident.
	NoBypass bool

	// CoverageStats tracks how often the temperature hint actually
	// discriminated between candidates (Fig 15). A decision is "covered"
	// unless every candidate (residents and the incoming branch) shares
	// the same temperature, in which case Thermometer degenerates to LRU.
	Decisions uint64
	Covered   uint64
	Bypasses  uint64

	temps []uint8 // scratch: resident temperatures for SelectVictimEntries
	cand  []int   // scratch: candidate ways, reused across decisions
}

// Reset sizes the core and clears counters and recency state.
func (c *ThermometerCore) Reset(sets, ways int) {
	c.LRU.Reset(sets, ways)
	c.Decisions, c.Covered, c.Bypasses = 0, 0, 0
	c.temps = make([]uint8, ways)
	c.cand = make([]int, 0, ways)
}

// Touch is the hit/insert action (recency only; temperatures live in the
// BTB entry).
func (c *ThermometerCore) Touch(set, way int) { c.LRU.Touch(set, way) }

// SelectVictim runs Algorithm 1 over the resident temperatures in temps
// (one per way, set full) and the incoming request, returning the way to
// evict or Bypass.
func (c *ThermometerCore) SelectVictim(set int, temps []uint8, req *Request) int {
	c.Decisions++

	coldest := req.Temperature
	allSame := true
	for _, t := range temps {
		if t != req.Temperature {
			allSame = false
		}
		if t < coldest {
			coldest = t
		}
	}
	if !allSame {
		c.Covered++
	}

	c.cand = c.cand[:0]
	for i, t := range temps {
		if t == coldest {
			c.cand = append(c.cand, i)
		}
	}
	if len(c.cand) == 0 {
		if c.NoBypass || req.Prefetch {
			// Insert anyway, evicting the coldest (LRU-tie-broken)
			// resident: either the no-bypass ablation is active, or this
			// is a prefetcher-initiated fill whose transient evidence of
			// imminent reuse outweighs the holistic cold hint.
			coldestResident := temps[0]
			for _, t := range temps {
				if t < coldestResident {
					coldestResident = t
				}
			}
			for i, t := range temps {
				if t == coldestResident {
					c.cand = append(c.cand, i)
				}
			}
			return c.LRU.LRUAmong(set, c.cand)
		}
		// The incoming branch is uniquely coldest: bypass (Alg. 1 line 6).
		c.Bypasses++
		return Bypass
	}
	return c.LRU.LRUAmong(set, c.cand)
}

// SelectVictimEntries adapts SelectVictim to the Policy interface's
// materialized-entries form.
func (c *ThermometerCore) SelectVictimEntries(set int, entries []Entry, req *Request) int {
	temps := c.temps
	if len(entries) != len(temps) {
		temps = make([]uint8, len(entries))
	}
	for i := range entries {
		temps[i] = entries[i].Temperature
	}
	return c.SelectVictim(set, temps, req)
}

// OPTCore implements Belady's optimal replacement with bypass over the
// per-request next-use oracle.
type OPTCore struct {
	nextUse []int
	ways    int
}

// Reset sizes the core.
func (c *OPTCore) Reset(sets, ways int) {
	c.nextUse = make([]int, sets*ways)
	c.ways = ways
}

// Record is the hit/insert action: store the resident's next-use position.
func (c *OPTCore) Record(set, way int, req *Request) {
	c.nextUse[set*c.ways+way] = req.NextUse
}

// SelectVictim evicts (or bypasses) the candidate whose next use is
// furthest in the future.
func (c *OPTCore) SelectVictim(set int, req *Request) int {
	base := set * c.ways
	victim := Bypass // the incoming branch itself
	furthest := req.NextUse
	for w := 0; w < c.ways; w++ {
		if nu := c.nextUse[base+w]; nu > furthest {
			furthest = nu
			victim = w
		}
	}
	return victim
}
