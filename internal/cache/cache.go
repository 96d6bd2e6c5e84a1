// Package cache models the processor's cache hierarchy (Table 1): 32KB/8w
// L1I, 48KB/12w L1D, 512KB/8w unified L2, 2MB/16w LLC, all with 64-byte
// blocks and LRU replacement.
//
// The model is a latency model, not a bandwidth model: each access walks
// down the hierarchy, fills upward inclusively, and reports the level it
// had to reach and that level's fixed latency. MSHR-level concurrency is
// left to the timing core, whose FDIP lead hides part of a line's latency
// from fetch.
package cache

import "fmt"

// Level identifies where an access was satisfied.
type Level int

// Hierarchy levels an instruction or data access can be satisfied from.
const (
	L1 Level = iota
	L2
	LLC
	Memory
)

// String returns the level's conventional name.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case Memory:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Cache is one set-associative, LRU, write-allocate cache level.
//
// Validity is encoded in the tag array: block addresses are byte addresses
// shifted right by blockBits (≥6), so the all-ones value can never be a
// real block and doubles as the "never filled" sentinel. The hit scan
// therefore touches only the tag column; stamps are read on misses and
// written on hits. The Table 1 geometries all have power-of-two set counts,
// so the set index is a mask in the common case (setMask >= 0) with a
// modulo fallback.
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	setMask   int64 // sets-1 when sets is a power of two, else -1

	tags  []uint64 // sets×ways, tag = block address; invalidTag = empty
	stamp []uint64 // LRU stamps
	clock uint64

	Accesses uint64
	Misses   uint64
}

// New builds a cache from total size in bytes, associativity, and block
// size in bytes (must be a power of two).
func New(name string, sizeBytes, ways, blockBytes int) *Cache {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	blocks := sizeBytes / blockBytes
	if ways <= 0 || blocks < ways {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", name, sizeBytes, ways))
	}
	sets := blocks / ways
	bb := uint(0)
	for 1<<bb != blockBytes {
		bb++
	}
	setMask := int64(-1)
	if sets&(sets-1) == 0 {
		setMask = int64(sets - 1)
	}
	c := &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		blockBits: bb,
		setMask:   setMask,
		tags:      make([]uint64, sets*ways),
		stamp:     make([]uint64, sets*ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// invalidTag marks a never-filled way. Block addresses lose at least 6 low
// bits to the block offset, so the all-ones value cannot collide with one.
const invalidTag = ^uint64(0)

// Name returns the level's label.
func (c *Cache) Name() string { return c.name }

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// block converts a byte address into a block address.
func (c *Cache) block(addr uint64) uint64 { return addr >> c.blockBits }

// setBase returns the flat index of the set holding block b.
func (c *Cache) setBase(b uint64) int {
	if c.setMask >= 0 {
		return int(b&uint64(c.setMask)) * c.ways
	}
	return int(b%uint64(c.sets)) * c.ways
}

// Access looks up addr, filling on miss. It returns whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	b := c.block(addr)
	base := c.setBase(b)
	tags := c.tags[base : base+c.ways]
	stamp := c.stamp[base : base+c.ways : base+c.ways]
	c.clock++
	for w := range tags {
		if tags[w] == b {
			stamp[w] = c.clock
			return true
		}
	}
	c.Misses++
	victim := 0
	for w := 1; w < len(tags); w++ {
		if tags[w] == invalidTag {
			victim = w
			break
		}
		if stamp[w] < stamp[victim] {
			victim = w
		}
	}
	tags[victim] = b
	stamp[victim] = c.clock
	return false
}

// Probe reports whether addr is present without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	b := c.block(addr)
	base := c.setBase(b)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == b {
			return true
		}
	}
	return false
}

// Cycles to reach each level beyond the L1, as on a contemporary server
// part.
const (
	L2Latency     = 14
	LLCLatency    = 40
	MemoryLatency = 200
)

// Hierarchy wires L1I/L1D/L2/LLC with Table 1 geometry.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	LLC *Cache

	// Instruction fetches and their L1I misses.
	InstrFetches  uint64
	InstrL1Misses uint64
}

// NewHierarchy builds the Table 1 hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I: New("L1I", 32<<10, 8, 64),
		L1D: New("L1D", 48<<10, 12, 64),
		L2:  New("L2", 512<<10, 8, 64),
		LLC: New("LLC", 2<<20, 16, 64),
	}
}

// FetchInstr performs a demand instruction fetch and returns the level that
// satisfied it and the access latency in cycles beyond the L1I pipeline
// (0 on L1I hit).
func (h *Hierarchy) FetchInstr(addr uint64) (Level, int) {
	h.InstrFetches++
	if h.L1I.Access(addr) {
		return L1, 0
	}
	h.InstrL1Misses++
	if h.L2.Access(addr) {
		return L2, L2Latency
	}
	if h.LLC.Access(addr) {
		return LLC, LLCLatency
	}
	return Memory, MemoryLatency
}

// LoadData performs a data load and returns (level, latency beyond L1D).
func (h *Hierarchy) LoadData(addr uint64) (Level, int) {
	if h.L1D.Access(addr) {
		return L1, 0
	}
	if h.L2.Access(addr) {
		return L2, L2Latency
	}
	if h.LLC.Access(addr) {
		return LLC, LLCLatency
	}
	return Memory, MemoryLatency
}
