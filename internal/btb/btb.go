// Package btb models the Branch Target Buffer and its companion structures
// (indirect-target buffer, return address stack).
//
// The BTB is a set-associative cache of taken-branch targets. Replacement is
// delegated to a pluggable Policy (package policy provides LRU, SRRIP, GHRP,
// Hawkeye, Belady OPT, and Thermometer). Following the paper, set indexing
// is plain address-modulo-set-count (§4.2), which is why the 7979-entry
// configuration of Fig 11 can distribute branches differently from the
// 8192-entry one.
//
// Storage is struct-of-arrays: one valid bitmask word per set plus parallel
// pc/target/meta arrays, so the hit scan touches only the tag column and
// skips invalid ways via the bitmask instead of loading whole entries.
// Power-of-two set counts index with a mask; others (the paper's 7979-entry
// case) keep the modulo. Every hit, insert and victim decision is a call
// through the Policy interface.
package btb

import (
	"fmt"
	"math/bits"

	"thermometer/internal/trace"
)

// Bypass is returned by Policy.Victim to indicate the incoming branch should
// not be inserted at all (§2.5 of the paper).
const Bypass = -1

// Entry is one BTB way.
type Entry struct {
	Valid  bool
	PC     uint64 // full-tag for simulation fidelity
	Target uint64
	Type   trace.BranchType
	// Temperature is the Thermometer hint carried by the branch instruction
	// and stored alongside the entry (2 extra bits per entry in hardware,
	// §3.4). Hotter = larger value. Policies other than Thermometer ignore
	// it.
	Temperature uint8
}

// Request describes one BTB access (a dynamic taken branch about to be
// looked up, and — on a miss — considered for insertion).
type Request struct {
	PC     uint64
	Target uint64
	Type   trace.BranchType
	// Temperature is the hint injected into the branch instruction by the
	// Thermometer toolchain. It travels with the request so the replacement
	// policy can compare the incoming branch against residents (Alg. 1).
	Temperature uint8
	// Prefetch marks the request as a prefetcher-initiated fill rather
	// than a demand insertion. A prefetch carries transient evidence of
	// imminent reuse, which policies may weigh against holistic hints
	// (Thermometer inserts prefetches even when their temperature alone
	// would bypass them).
	Prefetch bool
	// NextUse is the oracle used by the OPT policy: the position in the
	// access stream of the next access to this PC (trace.NoNextUse if
	// none). Non-oracle policies must ignore it.
	NextUse int
	// Index is the position of this access in the access stream; the OPT
	// policy needs it to interpret resident entries' stored next-use values.
	Index int
}

// Policy decides replacement. Implementations keep all of their per-entry
// metadata internally, sized by Reset.
type Policy interface {
	// Name returns a short identifier (used in tables and file names).
	Name() string
	// Reset prepares the policy for a BTB of the given geometry, clearing
	// all learned state.
	Reset(sets, ways int)
	// OnHit notifies the policy that req hit way `way` of set `set`.
	OnHit(set, way int, req *Request)
	// OnInsert notifies the policy that req was inserted into way `way` of
	// set `set` (after any eviction).
	OnInsert(set, way int, req *Request)
	// Victim selects the way to evict from `set` to make room for req, or
	// returns Bypass to skip insertion. It is only consulted when every way
	// of the set is valid. A policy that weighs residents' temperatures
	// keeps its own per-way copy, written by OnInsert and refreshed by
	// OnHit, as the BTB refreshes its stored hint on a hit.
	Victim(set int, req *Request) int
}

// Stats counts BTB events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Bypasses   uint64
	Insertions uint64
	Evictions  uint64
	// TargetUpdates counts hits whose stored target differed from the
	// observed one (indirect branches changing targets).
	TargetUpdates uint64
	// PrefetchFills counts entries installed by a BTB prefetcher.
	PrefetchFills uint64
}

// HitRate returns Hits/Accesses (0 when empty).
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Result reports what one Access did, so drivers can record eviction events
// for accuracy analyses without the BTB knowing about traces.
type Result struct {
	Hit      bool
	Bypassed bool
	// Evicted holds the displaced entry when an insertion evicted a valid
	// entry (check Evicted.Valid).
	Evicted Entry
	// Way is the way hit or filled; -1 on bypass.
	Way int
}

// ProbeKind classifies one structural BTB event reported to a ProbeFunc.
type ProbeKind uint8

// Probe kinds.
const (
	// ProbeHit: a demand access hit (victim nil).
	ProbeHit ProbeKind = iota
	// ProbeInsert: req was filled into the BTB (victim nil).
	ProbeInsert
	// ProbeEvict: a valid entry was displaced to make room for req; victim
	// points at the displaced entry (valid only for the duration of the
	// call).
	ProbeEvict
	// ProbeBypass: the policy declined to insert req.
	ProbeBypass
	// ProbePrefetchFill: req was installed by a prefetcher rather than a
	// demand miss (follows ProbeEvict when the fill displaced an entry).
	ProbePrefetchFill
)

// Demand reports whether k is a demand access (hit, insert or bypass): the
// stream a Belady shadow scores. Evictions and prefetch fills are not.
func (k ProbeKind) Demand() bool {
	return k == ProbeHit || k == ProbeInsert || k == ProbeBypass
}

// ProbeFunc observes structural BTB events for telemetry. set is the index
// of the set the event happened in; way is the way hit, filled, or (for
// ProbeEvict) vacated, and -1 for ProbeBypass. victim is non-nil only for
// ProbeEvict. Implementations must not retain req or victim past the call.
// A nil probe (the default) costs one predictable branch per event site.
type ProbeFunc func(kind ProbeKind, set, way int, req *Request, victim *Entry)

// BTB is a set-associative branch target buffer.
//
// Layout: slot (s, w) of the conceptual sets×ways grid lives at flat index
// s*ways+w of the pcs/targets/meta columns; bit w%64 of valid[s*vwords +
// w/64] marks it valid (vwords is 1 for every associativity up to 64 —
// i.e. all real configurations — and only the Fig 19 sensitivity sweep's
// 128-way point uses more). meta packs the branch type in the low byte and
// the temperature hint in the high byte. Invalid slots hold zeroes
// (entries are only ever overwritten, never invalidated), so materializing
// an Entry from the columns is exact.
type BTB struct {
	sets, ways int
	setMask    uint64 // sets-1 when sets is a power of two
	pow2       bool
	vwords     int      // valid-bitmask words per set: ceil(ways/64)
	fullMasks  []uint64 // per-word all-valid masks (last word partial)

	valid   []uint64 // sets × vwords
	pcs     []uint64 // sets × ways, row-major
	targets []uint64
	meta    []uint16 // Type | Temperature<<8

	policy Policy
	stats  Stats
	probe  ProbeFunc

	// Scratch reused across calls so the steady state allocates nothing:
	// req receives a copy of the caller's request before it is handed to
	// the policy or the probe (keeping the caller's Request on its stack),
	// and displaced holds the entry passed to ProbeEvict.
	req       Request
	displaced Entry
}

// New builds a BTB with totalEntries/ways sets (truncating division, which
// is how the paper's 7979-entry configuration yields a non-power-of-two set
// count). It panics on a degenerate geometry.
func New(totalEntries, ways int, p Policy) *BTB {
	if ways <= 0 || totalEntries < ways {
		panic(fmt.Sprintf("btb: bad geometry %d entries / %d ways", totalEntries, ways))
	}
	return NewWithSets(totalEntries/ways, ways, p)
}

// NewWithSets builds a BTB with an explicit set count.
func NewWithSets(sets, ways int, p Policy) *BTB {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("btb: bad geometry %d sets / %d ways", sets, ways))
	}
	vwords := (ways + 63) / 64
	fullMasks := make([]uint64, vwords)
	for i := range fullMasks {
		fullMasks[i] = ^uint64(0)
	}
	if r := ways % 64; r != 0 {
		fullMasks[vwords-1] = ^uint64(0) >> (64 - r)
	}
	b := &BTB{
		sets:      sets,
		ways:      ways,
		pow2:      sets&(sets-1) == 0,
		setMask:   uint64(sets - 1),
		vwords:    vwords,
		fullMasks: fullMasks,
		valid:     make([]uint64, sets*vwords),
		pcs:       make([]uint64, sets*ways),
		targets:   make([]uint64, sets*ways),
		meta:      make([]uint16, sets*ways),
		policy:    p,
	}
	p.Reset(sets, ways)
	return b
}

// Sets returns the number of sets.
func (b *BTB) Sets() int { return b.sets }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.ways }

// Policy returns the replacement policy in use.
func (b *BTB) Policy() Policy { return b.policy }

// Stats returns a copy of the counters so far.
func (b *BTB) Stats() Stats { return b.stats }

// ResetStats zeroes the counters without disturbing contents or policy
// state (used at the end of simulation warmup).
func (b *BTB) ResetStats() { b.stats = Stats{} }

// SetProbe installs (or, with nil, removes) the telemetry probe.
func (b *BTB) SetProbe(fn ProbeFunc) { b.probe = fn }

// SetIndex maps a branch PC to its set: address modulo set count, per §4.2
// (a mask when the set count is a power of two).
func (b *BTB) SetIndex(pc uint64) int {
	if b.pow2 {
		return int(pc & b.setMask)
	}
	return int(pc % uint64(b.sets))
}

// findWay returns the way holding pc in set s, or -1. The bitmask scan
// visits valid ways in ascending order, matching a linear walk that skips
// invalid entries.
func (b *BTB) findWay(s int, pc uint64) int {
	base := s * b.ways
	vbase := s * b.vwords
	for wi := 0; wi < b.vwords; wi++ {
		for m := b.valid[vbase+wi]; m != 0; m &= m - 1 {
			i := wi<<6 + bits.TrailingZeros64(m)
			if b.pcs[base+i] == pc {
				return i
			}
		}
	}
	return -1
}

// firstInvalid returns the lowest invalid way of set s, or -1 when full.
func (b *BTB) firstInvalid(s int) int {
	vbase := s * b.vwords
	for wi := 0; wi < b.vwords; wi++ {
		if v := b.valid[vbase+wi]; v != b.fullMasks[wi] {
			return wi<<6 + bits.TrailingZeros64(^v)
		}
	}
	return -1
}

// entryAt materializes slot (s, w) as an Entry. Invalid slots read as the
// zero Entry because storage is only ever overwritten, never cleared.
func (b *BTB) entryAt(s, w int) Entry {
	i := s*b.ways + w
	m := b.meta[i]
	return Entry{
		Valid:       b.valid[s*b.vwords+w>>6]&(1<<uint(w&63)) != 0,
		PC:          b.pcs[i],
		Target:      b.targets[i],
		Type:        trace.BranchType(m & 0xff),
		Temperature: uint8(m >> 8),
	}
}

// hitUpdate applies the architectural effects of a demand hit on (s, w):
// hit count, target refresh, and the stored hint (a re-profiled binary may
// have changed the branch's category). The stored Type is preserved.
func (b *BTB) hitUpdate(s, w int, req *Request) {
	i := s*b.ways + w
	b.stats.Hits++
	if b.targets[i] != req.Target {
		b.targets[i] = req.Target
		b.stats.TargetUpdates++
	}
	b.meta[i] = b.meta[i]&0x00ff | uint16(req.Temperature)<<8
}

// fillAt writes req into slot (s, w) and counts the insertion. The policy
// insert action is the caller's.
func (b *BTB) fillAt(s, w int, req *Request) {
	i := s*b.ways + w
	b.valid[s*b.vwords+w>>6] |= 1 << uint(w&63)
	b.pcs[i] = req.PC
	b.targets[i] = req.Target
	b.meta[i] = uint16(req.Type) | uint16(req.Temperature)<<8
	b.stats.Insertions++
}

// Lookup probes the BTB without modifying replacement state or statistics.
// It returns the stored target and whether the PC is present. The frontend
// uses it on the speculative path; replacement state is updated at branch
// resolution via Access.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	s := b.SetIndex(pc)
	if i := b.findWay(s, pc); i >= 0 {
		return b.targets[s*b.ways+i], true
	}
	return 0, false
}

// Access performs a demand access for a taken branch: probe, update
// replacement state on a hit, or consult the policy and insert on a miss.
//
// The policy and the probe get a BTB-owned copy of req, so the caller's
// Request never escapes and per-access Requests stay on the caller's stack.
func (b *BTB) Access(req *Request) Result {
	b.stats.Accesses++
	b.req = *req
	r := &b.req
	s := b.SetIndex(r.PC)
	if w := b.findWay(s, r.PC); w >= 0 {
		b.hitUpdate(s, w, r)
		b.policy.OnHit(s, w, r)
		if b.probe != nil {
			b.probe(ProbeHit, s, w, r, nil)
		}
		return Result{Hit: true, Way: w}
	}
	b.stats.Misses++
	w, evicted := b.install(s, r, ProbeInsert)
	if w == Bypass {
		b.stats.Bypasses++
		if b.probe != nil {
			b.probe(ProbeBypass, s, -1, r, nil)
		}
		return Result{Bypassed: true, Way: -1}
	}
	return Result{Evicted: evicted, Way: w}
}

// PrefetchFill installs req if absent, consulting the replacement policy
// for the victim (so prefetch-induced pollution is modelled). It returns
// whether a fill happened. Prefetches do not touch demand hit/miss
// counters; fills are visible via Stats().PrefetchFills.
func (b *BTB) PrefetchFill(req *Request) bool {
	s := b.SetIndex(req.PC)
	if b.findWay(s, req.PC) >= 0 {
		return false // already present
	}
	b.req = *req
	w, _ := b.install(s, &b.req, ProbePrefetchFill)
	return w != Bypass
}

// install places req (BTB-owned), absent from set s, into the set's lowest
// invalid way or else the policy's victim. kind (ProbeInsert or
// ProbePrefetchFill) is the event the fill reports to the probe, after a
// ProbeEvict when it displaced an entry; a prefetch fill is also counted in
// Stats. It returns the way filled, or Bypass, and the displaced entry.
func (b *BTB) install(s int, req *Request, kind ProbeKind) (int, Entry) {
	var evicted Entry
	w := b.firstInvalid(s)
	if w < 0 {
		w = b.policy.Victim(s, req)
		if w == Bypass {
			return Bypass, evicted
		}
		if w < 0 || w >= b.ways {
			panic(fmt.Sprintf("btb: policy %s returned invalid victim %d", b.policy.Name(), w))
		}
		evicted = b.entryAt(s, w)
		b.stats.Evictions++
	}
	b.fillAt(s, w, req)
	b.policy.OnInsert(s, w, req)
	if kind == ProbePrefetchFill {
		b.stats.PrefetchFills++
	}
	if b.probe != nil {
		if evicted.Valid {
			b.displaced = evicted
			b.probe(ProbeEvict, s, w, req, &b.displaced)
		}
		b.probe(kind, s, w, req, nil)
	}
	return w, evicted
}

// Contents returns a copy of a set's entries (for tests and debugging).
func (b *BTB) Contents(set int) []Entry {
	out := make([]Entry, b.ways)
	for w := range out {
		out[w] = b.entryAt(set, w)
	}
	return out
}

// Occupancy returns the fraction of valid entries.
func (b *BTB) Occupancy() float64 {
	n := 0
	for _, v := range b.valid {
		n += bits.OnesCount64(v)
	}
	return float64(n) / float64(b.sets*b.ways)
}

// TemperatureCensus counts valid entries overall and by stored temperature
// hint (capped at the 2-bit encoding of §3.4). The epoch sampler uses it to
// report per-temperature occupancy; the walk is O(capacity), so callers
// should sample it at epoch granularity, not per access.
func (b *BTB) TemperatureCensus() (valid uint64, byTemp [4]uint64) {
	for s := 0; s < b.sets; s++ {
		base := s * b.ways
		vbase := s * b.vwords
		for wi := 0; wi < b.vwords; wi++ {
			for m := b.valid[vbase+wi]; m != 0; m &= m - 1 {
				w := wi<<6 + bits.TrailingZeros64(m)
				valid++
				t := uint8(b.meta[base+w] >> 8)
				if t > 3 {
					t = 3
				}
				byTemp[t]++
			}
		}
	}
	return valid, byTemp
}

// SetCensus counts the valid entries of one set and sums their stored
// temperature hints. The attribution heatmap samples it per set at epoch
// boundaries; the walk is O(ways).
func (b *BTB) SetCensus(s int) (valid, tempSum int) {
	base := s * b.ways
	vbase := s * b.vwords
	for wi := 0; wi < b.vwords; wi++ {
		for m := b.valid[vbase+wi]; m != 0; m &= m - 1 {
			w := wi<<6 + bits.TrailingZeros64(m)
			valid++
			tempSum += int(b.meta[base+w] >> 8)
		}
	}
	return valid, tempSum
}

// Capacity returns the total number of entry slots (sets × ways).
func (b *BTB) Capacity() int { return b.sets * b.ways }
