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
// case) keep the modulo. Hot policies are dispatched through concrete cores
// chosen once at construction (see cores.go); the Policy interface remains
// the extension point, used by every policy without a core. Both paths
// report the same events to a telemetry probe.
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
	// returns Bypass to skip insertion. entries holds a snapshot of the
	// set's ways (all valid — Victim is only consulted when the set is
	// full); implementations must not retain or mutate it.
	Victim(set int, entries []Entry, req *Request) int
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

// dispatchKind selects the devirtualized per-access path, chosen once at
// construction from the policy's Fast* accessor (kindGeneric = interface
// dispatch).
type dispatchKind uint8

const (
	kindGeneric dispatchKind = iota
	kindLRU
	kindSRRIP
	kindThermo
	kindOPT
)

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

	// Devirtualized dispatch: kind and the matching core pointer are chosen
	// once in NewWithSets. The pointers alias state inside policy, so a
	// caller that drives the policy through its interface sees the same
	// state.
	kind   dispatchKind
	lru    *LRUCore
	srrip  *SRRIPCore
	thermo *ThermometerCore
	opt    *OPTCore

	// Scratch reused across calls so the steady state allocates nothing:
	// req receives a copy of the caller's request before it is handed to
	// interface methods or probes (keeping the caller's Request on its
	// stack), setScratch materializes a set for Policy.Victim, and
	// displaced holds the entry passed to ProbeEvict.
	req        Request
	setScratch []Entry
	displaced  Entry
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
		sets:       sets,
		ways:       ways,
		pow2:       sets&(sets-1) == 0,
		setMask:    uint64(sets - 1),
		vwords:     vwords,
		fullMasks:  fullMasks,
		valid:      make([]uint64, sets*vwords),
		pcs:        make([]uint64, sets*ways),
		targets:    make([]uint64, sets*ways),
		meta:       make([]uint16, sets*ways),
		policy:     p,
		setScratch: make([]Entry, ways),
	}
	p.Reset(sets, ways)
	// Devirtualize: adopt the policy's concrete core when it offers one.
	// Checked most-specific first (Thermometer owns an LRU internally but
	// must dispatch as Thermometer).
	switch fp := p.(type) {
	case ThermometerFastPath:
		b.kind, b.thermo = kindThermo, fp.FastThermometer()
	case SRRIPFastPath:
		b.kind, b.srrip = kindSRRIP, fp.FastSRRIP()
	case OPTFastPath:
		b.kind, b.opt = kindOPT, fp.FastOPT()
	case LRUFastPath:
		b.kind, b.lru = kindLRU, fp.FastLRU()
	}
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

// SetProbe installs (or, with nil, removes) the telemetry probe. Both
// dispatch paths report the same event stream to it.
func (b *BTB) SetProbe(fn ProbeFunc) { b.probe = fn }

// fire reports one event to the probe. The request goes out as the
// BTB-owned copy, so the caller's Request never escapes.
func (b *BTB) fire(kind ProbeKind, s, w int, req *Request, victim *Entry) {
	b.req = *req
	b.probe(kind, s, w, &b.req, victim)
}

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
// insert action is the caller's responsibility (direct on fast paths,
// OnInsert on the interface path).
func (b *BTB) fillAt(s, w int, req *Request) {
	i := s*b.ways + w
	b.valid[s*b.vwords+w>>6] |= 1 << uint(w&63)
	b.pcs[i] = req.PC
	b.targets[i] = req.Target
	b.meta[i] = uint16(req.Type) | uint16(req.Temperature)<<8
	b.stats.Insertions++
}

// fastOnHit dispatches the hit action to the selected core.
func (b *BTB) fastOnHit(s, w int, req *Request) {
	switch b.kind {
	case kindLRU:
		b.lru.Touch(s, w)
	case kindSRRIP:
		b.srrip.Promote(s, w)
	case kindThermo:
		b.thermo.Touch(s, w)
	case kindOPT:
		b.opt.Record(s, w, req)
	default:
		panic("btb: fast hit dispatch on generic policy")
	}
}

// fastOnInsert dispatches the insert action to the selected core.
func (b *BTB) fastOnInsert(s, w int, req *Request) {
	switch b.kind {
	case kindLRU:
		b.lru.Touch(s, w)
	case kindSRRIP:
		b.srrip.InsertLong(s, w)
	case kindThermo:
		b.thermo.Touch(s, w)
	case kindOPT:
		b.opt.Record(s, w, req)
	default:
		panic("btb: fast insert dispatch on generic policy")
	}
}

// fastVictim dispatches victim selection to the selected core (set full).
func (b *BTB) fastVictim(s int, req *Request) int {
	switch b.kind {
	case kindLRU:
		return b.lru.LRUWay(s)
	case kindSRRIP:
		return b.srrip.SelectVictim(s)
	case kindThermo:
		t := b.thermo
		base := s * b.ways
		for w := 0; w < b.ways; w++ {
			t.temps[w] = uint8(b.meta[base+w] >> 8)
		}
		return t.SelectVictim(s, t.temps, req)
	default: // kindOPT
		return b.opt.SelectVictim(s, req)
	}
}

// materializeSet snapshots set s into the reusable scratch for
// Policy.Victim on the interface path.
func (b *BTB) materializeSet(s int) []Entry {
	for w := 0; w < b.ways; w++ {
		b.setScratch[w] = b.entryAt(s, w)
	}
	return b.setScratch
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
// The caller's Request never escapes: fast paths read it in place, and the
// interface path works on a BTB-owned copy, so per-access Requests stay on
// the caller's stack.
func (b *BTB) Access(req *Request) Result {
	if b.kind != kindGeneric {
		r := b.accessFast(req)
		if b.probe != nil {
			b.fireAccess(req, r)
		}
		return r
	}
	b.req = *req
	return b.accessGeneric(&b.req)
}

// accessFast is the devirtualized demand access: identical decision
// sequence to accessGeneric, with the policy hooks dispatched directly.
func (b *BTB) accessFast(req *Request) Result {
	b.stats.Accesses++
	s := b.SetIndex(req.PC)
	if i := b.findWay(s, req.PC); i >= 0 {
		b.hitUpdate(s, i, req)
		b.fastOnHit(s, i, req)
		return Result{Hit: true, Way: i}
	}
	b.stats.Misses++
	if i := b.firstInvalid(s); i >= 0 {
		b.fillAt(s, i, req)
		b.fastOnInsert(s, i, req)
		return Result{Way: i}
	}
	v := b.fastVictim(s, req)
	if v == Bypass {
		b.stats.Bypasses++
		return Result{Bypassed: true, Way: -1}
	}
	evicted := b.entryAt(s, v)
	b.stats.Evictions++
	b.fillAt(s, v, req)
	b.fastOnInsert(s, v, req)
	return Result{Evicted: evicted, Way: v}
}

// fireAccess reports a fast-path demand access to the probe: the events
// accessGeneric fires, in its order and after the same state changes, read
// back from the access's Result. A full set is all valid, so a valid
// Evicted entry means the access replaced one.
func (b *BTB) fireAccess(req *Request, r Result) {
	s := b.SetIndex(req.PC)
	switch {
	case r.Hit:
		b.fire(ProbeHit, s, r.Way, req, nil)
	case r.Bypassed:
		b.fire(ProbeBypass, s, -1, req, nil)
	case r.Evicted.Valid:
		b.displaced = r.Evicted
		b.fire(ProbeEvict, s, r.Way, req, &b.displaced)
		b.fire(ProbeInsert, s, r.Way, req, nil)
	default:
		b.fire(ProbeInsert, s, r.Way, req, nil)
	}
}

// accessGeneric is the interface-dispatch demand access, used for policies
// without a fast core.
func (b *BTB) accessGeneric(req *Request) Result {
	b.stats.Accesses++
	s := b.SetIndex(req.PC)
	if i := b.findWay(s, req.PC); i >= 0 {
		b.hitUpdate(s, i, req)
		b.policy.OnHit(s, i, req)
		if b.probe != nil {
			b.probe(ProbeHit, s, i, req, nil)
		}
		return Result{Hit: true, Way: i}
	}
	b.stats.Misses++
	if i := b.firstInvalid(s); i >= 0 {
		b.fillAt(s, i, req)
		b.policy.OnInsert(s, i, req)
		if b.probe != nil {
			b.probe(ProbeInsert, s, i, req, nil)
		}
		return Result{Way: i}
	}
	v := b.policy.Victim(s, b.materializeSet(s), req)
	if v == Bypass {
		b.stats.Bypasses++
		if b.probe != nil {
			b.probe(ProbeBypass, s, -1, req, nil)
		}
		return Result{Bypassed: true, Way: -1}
	}
	if v < 0 || v >= b.ways {
		panic(fmt.Sprintf("btb: policy %s returned invalid victim %d", b.policy.Name(), v))
	}
	evicted := b.entryAt(s, v)
	b.stats.Evictions++
	b.fillAt(s, v, req)
	b.policy.OnInsert(s, v, req)
	if b.probe != nil {
		b.displaced = evicted
		b.probe(ProbeEvict, s, v, req, &b.displaced)
		b.probe(ProbeInsert, s, v, req, nil)
	}
	return Result{Evicted: evicted, Way: v}
}

// PrefetchFill installs req if absent, consulting the replacement policy
// for the victim (so prefetch-induced pollution is modelled). It returns
// whether a fill happened. Prefetches do not touch demand hit/miss
// counters; fills are visible via Stats().PrefetchFills.
func (b *BTB) PrefetchFill(req *Request) bool {
	if b.kind != kindGeneric {
		return b.prefetchFast(req)
	}
	b.req = *req
	return b.prefetchGeneric(&b.req)
}

func (b *BTB) prefetchFast(req *Request) bool {
	s := b.SetIndex(req.PC)
	if b.findWay(s, req.PC) >= 0 {
		return false // already present
	}
	if i := b.firstInvalid(s); i >= 0 {
		b.fillAt(s, i, req)
		b.fastOnInsert(s, i, req)
		b.stats.PrefetchFills++
		if b.probe != nil {
			b.fire(ProbePrefetchFill, s, i, req, nil)
		}
		return true
	}
	v := b.fastVictim(s, req)
	if v == Bypass {
		return false
	}
	if b.probe != nil {
		b.displaced = b.entryAt(s, v)
	}
	b.stats.Evictions++
	b.fillAt(s, v, req)
	b.fastOnInsert(s, v, req)
	b.stats.PrefetchFills++
	if b.probe != nil {
		b.fire(ProbeEvict, s, v, req, &b.displaced)
		b.fire(ProbePrefetchFill, s, v, req, nil)
	}
	return true
}

func (b *BTB) prefetchGeneric(req *Request) bool {
	s := b.SetIndex(req.PC)
	if b.findWay(s, req.PC) >= 0 {
		return false // already present
	}
	if i := b.firstInvalid(s); i >= 0 {
		b.fillAt(s, i, req)
		b.policy.OnInsert(s, i, req)
		b.stats.PrefetchFills++
		if b.probe != nil {
			b.probe(ProbePrefetchFill, s, i, req, nil)
		}
		return true
	}
	v := b.policy.Victim(s, b.materializeSet(s), req)
	if v == Bypass {
		return false
	}
	if v < 0 || v >= b.ways {
		panic(fmt.Sprintf("btb: policy %s returned invalid victim %d", b.policy.Name(), v))
	}
	evicted := b.entryAt(s, v)
	b.stats.Evictions++
	b.fillAt(s, v, req)
	b.policy.OnInsert(s, v, req)
	b.stats.PrefetchFills++
	if b.probe != nil {
		b.displaced = evicted
		b.probe(ProbeEvict, s, v, req, &b.displaced)
		b.probe(ProbePrefetchFill, s, v, req, nil)
	}
	return true
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
