package policy

import (
	"thermometer/internal/btb"
	"thermometer/internal/trace"
)

// OPT implements Belady's optimal replacement policy with bypass. It is the
// provably optimal (and unrealizable in hardware) policy the paper uses both
// as the performance upper bound and as the offline oracle from which branch
// temperatures are computed (§2.2, §3.2).
//
// The driver must populate Request.NextUse and Request.Index from a
// trace.AccessStream; OPT stores each resident entry's next-use position and
// evicts the candidate used furthest in the future. When the incoming branch
// itself is the furthest-used candidate, it bypasses the BTB — Belady with
// bypass is optimal for caches, like the BTB, that are not forced to insert
// on miss.
type OPT struct {
	nextUse []int // per way: the resident's next-use position
	ways    int
}

// NewOPT returns an optimal replacement policy instance.
func NewOPT() *OPT { return &OPT{} }

// Name implements btb.Policy.
func (p *OPT) Name() string { return "OPT" }

// Reset implements btb.Policy.
func (p *OPT) Reset(sets, ways int) {
	p.nextUse = make([]int, sets*ways)
	p.ways = ways
}

// OnHit implements btb.Policy: refresh the resident's next-use position.
func (p *OPT) OnHit(set, way int, req *btb.Request) { p.nextUse[set*p.ways+way] = req.NextUse }

// OnInsert implements btb.Policy.
func (p *OPT) OnInsert(set, way int, req *btb.Request) { p.nextUse[set*p.ways+way] = req.NextUse }

// Victim implements btb.Policy: evict (or bypass) the candidate whose next
// use is furthest in the future.
func (p *OPT) Victim(set int, req *btb.Request) int {
	base := set * p.ways
	victim := btb.Bypass // the incoming branch itself
	furthest := req.NextUse
	for w := 0; w < p.ways; w++ {
		if nu := p.nextUse[base+w]; nu > furthest {
			furthest = nu
			victim = w
		}
	}
	return victim
}

var _ btb.Policy = (*OPT)(nil)
var _ = trace.NoNextUse // OPT semantics depend on trace.NoNextUse ordering (max int)
