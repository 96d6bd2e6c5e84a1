package belady

// This file provides the *incremental* forms of the offline optimal
// simulation, for consumers that interleave Belady's algorithm with other
// work instead of sweeping a whole access stream at once. Two models:
//
//   - Shadow: the set-associative geometry of the online BTB, advanced one
//     access at a time. ProfileSets is implemented on top of it, so the
//     batch profiler and every incremental consumer (the attribution layer's
//     regret reference) share one replacement decision procedure and cannot
//     drift apart.
//   - FAShadow: a fully-associative Belady model of the same total capacity,
//     used by the miss classifier to split capacity from conflict misses.
//     Victim search uses a lazy max-heap so each access costs O(log n)
//     instead of an O(capacity) scan.
//
// Both implement Belady-with-bypass: when the incoming access itself is the
// furthest-reused candidate, it is not inserted (ties bypass, matching the
// strict comparison in the original ProfileSets loop).

// ShadowOutcome reports what one Shadow access did.
type ShadowOutcome uint8

// Shadow access outcomes.
const (
	// ShadowHit: the PC was resident; its next-use was refreshed.
	ShadowHit ShadowOutcome = iota
	// ShadowInsert: a miss filled an empty way.
	ShadowInsert
	// ShadowEvict: a miss displaced the furthest-reused resident.
	ShadowEvict
	// ShadowBypass: a miss was not inserted (the incoming access is itself
	// the furthest-reused candidate).
	ShadowBypass
)

// ShadowStats counts shadow-model events; Misses includes bypasses.
type ShadowStats struct {
	Accesses, Hits, Misses, Bypasses uint64
}

// Shadow is an incremental set-associative Belady-with-bypass simulation of
// one BTB geometry. It is the same decision procedure as ProfileSets, one
// access at a time.
type Shadow struct {
	sets, ways int
	setMask    uint64 // sets-1 when sets is a power of two
	pow2       bool
	table      [][]beladyEntry
	stats      ShadowStats
}

// NewShadow returns a shadow model with the given geometry (minimums 1).
func NewShadow(sets, ways int) *Shadow {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	return &Shadow{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		table:   make([][]beladyEntry, sets),
	}
}

// Sets returns the set count.
func (s *Shadow) Sets() int { return s.sets }

// Ways returns the associativity.
func (s *Shadow) Ways() int { return s.ways }

// Stats returns a copy of the counters so far.
func (s *Shadow) Stats() ShadowStats { return s.stats }

// ResetStats zeroes the counters without disturbing contents (mirrors
// btb.ResetStats at the end of simulation warmup).
func (s *Shadow) ResetStats() { s.stats = ShadowStats{} }

// Access advances the model by one access: pc with its next-use stream
// position (trace.NoNextUse if never reused). evictedPC is meaningful only
// when the outcome is ShadowEvict.
func (s *Shadow) Access(pc uint64, nextUse int) (out ShadowOutcome, evictedPC uint64) {
	s.stats.Accesses++
	// Index as btb.SetIndex does: a mask for a power-of-two set count, the
	// modulo otherwise (1994 sets for the paper's 7979 entries).
	var si uint64
	if s.pow2 {
		si = pc & s.setMask
	} else {
		si = pc % uint64(s.sets)
	}
	set := s.table[si]
	for w := range set {
		if set[w].pc == pc {
			s.stats.Hits++
			set[w].nextUse = nextUse
			return ShadowHit, 0
		}
	}
	s.stats.Misses++
	if len(set) < s.ways {
		s.table[si] = append(set, beladyEntry{pc: pc, nextUse: nextUse})
		return ShadowInsert, 0
	}
	// Full set: evict the furthest-future candidate, counting the incoming
	// access itself (bypass). Strict > means ties favor the incoming access.
	victim, furthest := -1, nextUse
	for w := range set {
		if set[w].nextUse > furthest {
			furthest = set[w].nextUse
			victim = w
		}
	}
	if victim < 0 {
		s.stats.Bypasses++
		return ShadowBypass, 0
	}
	evictedPC = set[victim].pc
	set[victim] = beladyEntry{pc: pc, nextUse: nextUse}
	return ShadowEvict, evictedPC
}

// faItem is one lazy heap entry: the next-use a PC had when it was pushed.
// Entries whose next-use no longer matches the resident map are stale and
// discarded on pop.
type faItem struct {
	nextUse int
	pc      uint64
}

// faHeap is a max-heap by (nextUse, pc). The pc tie-break only matters for
// never-reused residents (distinct PCs cannot share a finite next-use
// position) and exists purely for determinism.
type faHeap []faItem

func (h faHeap) less(i, j int) bool {
	if h[i].nextUse != h[j].nextUse {
		return h[i].nextUse > h[j].nextUse
	}
	return h[i].pc > h[j].pc
}

func (h *faHeap) push(it faItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *faHeap) pop() faItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && (*h).less(l, largest) {
			largest = l
		}
		if r < n && (*h).less(r, largest) {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
	return top
}

// FAShadow is an incremental fully-associative Belady-with-bypass model.
// The miss classifier runs it at the online BTB's total capacity: a miss
// that hits here was caused by set conflicts, not by capacity.
type FAShadow struct {
	capacity int
	resident map[uint64]int // pc -> current next-use
	h        faHeap
	stats    ShadowStats
}

// NewFAShadow returns a fully-associative shadow of the given capacity
// (minimum 1).
func NewFAShadow(capacity int) *FAShadow {
	if capacity < 1 {
		capacity = 1
	}
	return &FAShadow{
		capacity: capacity,
		resident: make(map[uint64]int, capacity),
		h:        make(faHeap, 0, capacity),
	}
}

// Capacity returns the model's entry count.
func (s *FAShadow) Capacity() int { return s.capacity }

// Stats returns a copy of the counters so far.
func (s *FAShadow) Stats() ShadowStats { return s.stats }

// ResetStats zeroes the counters without disturbing contents.
func (s *FAShadow) ResetStats() { s.stats = ShadowStats{} }

// Resident reports whether pc is currently resident.
func (s *FAShadow) Resident(pc uint64) bool {
	_, ok := s.resident[pc]
	return ok
}

// Access advances the model by one access and reports whether it hit.
func (s *FAShadow) Access(pc uint64, nextUse int) (hit bool) {
	s.stats.Accesses++
	if _, ok := s.resident[pc]; ok {
		s.stats.Hits++
		s.resident[pc] = nextUse
		s.h.push(faItem{nextUse: nextUse, pc: pc})
		return true
	}
	s.stats.Misses++
	if len(s.resident) < s.capacity {
		s.resident[pc] = nextUse
		s.h.push(faItem{nextUse: nextUse, pc: pc})
		return false
	}
	// Discard stale heap entries (superseded next-uses and evicted PCs)
	// until the top reflects a live resident: the furthest-reused one.
	for {
		cur, ok := s.resident[s.h[0].pc]
		if ok && cur == s.h[0].nextUse {
			break
		}
		s.h.pop()
	}
	if s.h[0].nextUse > nextUse {
		victim := s.h.pop()
		delete(s.resident, victim.pc)
		s.resident[pc] = nextUse
		s.h.push(faItem{nextUse: nextUse, pc: pc})
	} else {
		s.stats.Bypasses++
	}
	return false
}
