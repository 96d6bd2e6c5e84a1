package policy

import "thermometer/internal/btb"

// SRRIP implements Static Re-Reference Interval Prediction (Jaleel et al.,
// ISCA 2010) adapted to the BTB, the best performing prior policy in the
// paper's evaluation. Every entry carries an M-bit re-reference prediction
// value (RRPV). New entries are inserted with a "long" re-reference
// prediction (RRPV = 2^M − 2); hits promote to "near-immediate" (0);
// eviction takes the first way whose RRPV is "distant" (2^M − 1), aging the
// whole set until one exists.
type SRRIP struct {
	max  uint8 // distant value = 2^M − 1
	rrpv []uint8
	ways int

	// AgingRounds counts whole-set RRPV aging sweeps — a measure of how
	// often no entry is already predicted distant.
	AgingRounds uint64
}

// NewSRRIP returns a 2-bit SRRIP policy (the standard configuration).
func NewSRRIP() *SRRIP { return NewSRRIPBits(2) }

// NewSRRIPBits returns an SRRIP policy with M-bit RRPVs.
func NewSRRIPBits(m int) *SRRIP {
	if m < 1 || m > 8 {
		panic("policy: SRRIP bits out of range")
	}
	return &SRRIP{max: uint8(1<<m - 1)}
}

// Name implements btb.Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// Reset implements btb.Policy: every way starts distant.
func (p *SRRIP) Reset(sets, ways int) {
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
	p.ways = ways
	p.AgingRounds = 0
}

// OnHit implements btb.Policy: hit promotion to RRPV 0.
func (p *SRRIP) OnHit(set, way int, _ *btb.Request) { p.rrpv[set*p.ways+way] = 0 }

// OnInsert implements btb.Policy: insert with a long re-reference interval,
// so a branch only earns retention by being re-taken (the "BTB-averse until
// proven friendly" assumption §2.3 describes).
func (p *SRRIP) OnInsert(set, way int, _ *btb.Request) { p.rrpv[set*p.ways+way] = p.max - 1 }

// Victim implements btb.Policy: the first way predicted distant, aging the
// whole set until one exists.
func (p *SRRIP) Victim(set int, _ *btb.Request) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == p.max {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
		p.AgingRounds++
	}
}

// TelemetryCounters implements Instrumented.
func (p *SRRIP) TelemetryCounters() map[string]uint64 {
	return map[string]uint64{"srrip_aging_rounds": p.AgingRounds}
}

var _ btb.Policy = (*SRRIP)(nil)
var _ Instrumented = (*SRRIP)(nil)
