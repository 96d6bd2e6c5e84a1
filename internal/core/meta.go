package core

import (
	"math"

	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

// Prefetcher is a BTB prefetcher. Implementations live in package prefetch;
// the simulator invokes the hooks and supplies an insert callback that runs
// the fill through the replacement policy (so prefetch-induced pollution is
// modelled, as in Fig 4).
type Prefetcher interface {
	// Name identifies the prefetcher.
	Name() string
	// OnLineFill fires when an instruction cache line (64B block address)
	// is brought in by fetch or FDIP.
	OnLineFill(blockAddr uint64, insert InsertFunc)
	// OnBTBAccess fires after each demand BTB access.
	OnBTBAccess(pc, target uint64, hit bool, insert InsertFunc)
}

// InsertFunc installs a branch into the BTB as a prefetch (no demand-miss
// accounting). Implementations receive it from the simulator.
type InsertFunc func(pc, target uint64, typ trace.BranchType)

// BranchSite is static per-branch metadata the prefetchers index.
type BranchSite struct {
	PC     uint64
	Target uint64 // most recent taken target
	Type   trace.BranchType
}

// TraceMeta is static metadata precomputed from a trace: the branch
// population per 64-byte code block (what Confluence/Shotgun bundle with
// instruction lines) and per-PC access positions (the oracle that lets the
// OPT policy price prefetch-inserted entries).
//
// The layout is flat: pointer-free slices, plus two maps from addresses to
// int32 indices. Each static branch site has a dense ID: the stream's site
// number (trace.Access.Site) renumbered so that the sites are stored by ID
// grouped by block, in first-access order within a block, and a block's
// sites are one span of IDs. The access positions are one CSR
// array indexed by ID. A TraceMeta is read-only once built: MetaFor shares
// one per trace between every run and prefetcher on it, and prefetchers
// keep their own state in slices indexed by site ID.
type TraceMeta struct {
	sites []BranchSite     // by ID
	ids   map[uint64]int32 // PC → ID
	// blocks numbers the 64B blocks; block b holds the IDs
	// [blockAt[b], blockAt[b+1]).
	blocks  map[uint64]int32
	blockAt []int32
	// pos holds the access-stream indices of site id, ascending, at
	// [posAt[id], posAt[id+1]).
	posAt []int32
	pos   []int32
}

// BuildMeta lays out the metadata of a trace's whole access stream. It
// takes the stream's site numbering (first-access order, Access.Site), so
// it reads no map per access.
func BuildMeta(accesses []trace.Access) *TraceMeta {
	if len(accesses) > math.MaxInt32 {
		panic("core: access stream too long for 32-bit trace metadata")
	}
	// Collect the sites in the stream's first-access order, each with its
	// last target.
	var first []BranchSite
	for i := range accesses {
		a := &accesses[i]
		if int(a.Site) == len(first) {
			first = append(first, BranchSite{PC: a.PC, Type: a.Type})
		}
		first[a.Site].Target = a.Target
	}

	// Group them by block, blocks numbered by first appearance; a site's
	// ID is its slot in its block's span.
	m := &TraceMeta{
		sites:  make([]BranchSite, len(first)),
		ids:    make(map[uint64]int32, len(first)),
		blocks: make(map[uint64]int32, len(first)/2),
		posAt:  make([]int32, len(first)+1),
		pos:    make([]int32, len(accesses)),
	}
	blockOf := make([]int32, len(first))
	var count []int32
	for f := range first {
		blk := first[f].PC >> 6
		b, ok := m.blocks[blk]
		if !ok {
			b = int32(len(count))
			m.blocks[blk] = b
			count = append(count, 0)
		}
		blockOf[f] = b
		count[b]++
	}
	m.blockAt = make([]int32, len(count)+1)
	for b, c := range count {
		m.blockAt[b+1] = m.blockAt[b] + c
	}
	next := append([]int32(nil), m.blockAt[:len(count)]...)
	idOf := make([]int32, len(first)) // first-access number → ID
	for f := range first {
		id := next[blockOf[f]]
		next[blockOf[f]]++
		idOf[f] = id
		m.sites[id] = first[f]
		m.ids[first[f].PC] = id
	}

	// Lay out the positions by ID.
	for i := range accesses {
		m.posAt[idOf[accesses[i].Site]+1]++
	}
	for id := range m.sites {
		m.posAt[id+1] += m.posAt[id]
	}
	fill := append([]int32(nil), m.posAt[:len(m.sites)]...)
	for i := range accesses {
		id := idOf[accesses[i].Site]
		m.pos[fill[id]] = int32(i)
		fill[id]++
	}
	return m
}

// metaKey is MetaFor's Memo key.
type metaKey struct{}

// MetaFor returns the trace's metadata, built once per trace (memoized on
// it, like its access stream) and shared by every caller. Callers must
// treat it as read-only.
func MetaFor(tr *trace.Trace) *TraceMeta {
	return tr.Memo(metaKey{}, func() any { return BuildMeta(tr.AccessStream()) }).(*TraceMeta)
}

// hintColumnKey is hintColumn's Memo key: one column per hint table.
type hintColumnKey struct{ ht *profile.HintTable }

// hintColumn returns ht's Column over the trace's access stream, nil
// without a table. It is memoized on the trace per table, like the stream
// itself, so every run with that table reads its demand accesses'
// temperatures by position; the table must not change once a run has
// used it.
func hintColumn(tr *trace.Trace, ht *profile.HintTable) []uint8 {
	if ht == nil {
		return nil
	}
	return tr.Memo(hintColumnKey{ht}, func() any { return ht.Column(tr.AccessStream()) }).([]uint8)
}

// NumSites returns the number of static branch sites; IDs run from 0 to
// NumSites()-1.
func (m *TraceMeta) NumSites() int { return len(m.sites) }

// ID returns pc's site ID, if pc is a taken branch of the trace.
func (m *TraceMeta) ID(pc uint64) (int, bool) {
	id, ok := m.ids[pc]
	return int(id), ok
}

// ByBlock returns the taken-branch sites within 64B block blk, in
// first-access order, and the ID of the first: sites[k] has ID first+k.
// The slice is the metadata's own storage and must not be modified.
func (m *TraceMeta) ByBlock(blk uint64) (first int, sites []BranchSite) {
	b, ok := m.blocks[blk]
	if !ok {
		return 0, nil
	}
	lo, hi := m.blockAt[b], m.blockAt[b+1]
	return int(lo), m.sites[lo:hi:hi]
}

// Positions returns pc's ascending access-stream indices (nil for a PC the
// trace never takes). The slice must not be modified.
func (m *TraceMeta) Positions(pc uint64) []int32 {
	id, ok := m.ids[pc]
	if !ok {
		return nil
	}
	return m.pos[m.posAt[id]:m.posAt[id+1]:m.posAt[id+1]]
}

// NextUseAfter returns the access-stream index of the first access to pc
// strictly after index i (trace.NoNextUse if none). Prefetch inserts use it
// so the OPT policy can price them.
func (m *TraceMeta) NextUseAfter(pc uint64, i int) int {
	pos := m.Positions(pc)
	lo, hi := 0, len(pos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(pos[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pos) {
		return trace.NoNextUse
	}
	return int(pos[lo])
}
