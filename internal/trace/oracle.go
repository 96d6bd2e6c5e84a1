package trace

import "math"

// NoNextUse marks an access whose branch is never taken again; Belady's
// algorithm treats it as the most attractive eviction candidate.
const NoNextUse = int(^uint(0) >> 1) // max int

// Access is one BTB demand access: a dynamic taken branch. The BTB is only
// written for taken branches (not-taken branches have no target to store),
// so the access stream over which replacement operates is the taken-branch
// subsequence of the trace.
type Access struct {
	// PC is the branch address (the BTB lookup key).
	PC uint64
	// Target is the taken target observed for this instance.
	Target uint64
	// NextUse is the index (within the access stream) of the next access
	// with the same PC, or NoNextUse if this is the final one. It is the
	// oracle Belady's algorithm needs.
	NextUse int
	// Site numbers the static branch: the stream's distinct PCs are sites
	// 0, 1, 2, ... in order of their first access. Per-branch state on hot
	// paths lives in slices indexed by Site instead of maps keyed by PC.
	Site int32
	// Type mirrors the record's branch type.
	Type BranchType
}

// AccessStream returns the trace's taken-branch subsequence with sites
// numbered and next-use indices precomputed. The result is the input to
// both the offline Belady profiler and the online OPT replacement policy.
//
// The stream is computed once per Trace and cached: profiling, prefetch
// metadata, and the simulator all consume the same stream, and benchmark
// harnesses call Run repeatedly on one trace. Callers must treat the
// returned slice as read-only.
func (t *Trace) AccessStream() []Access {
	return t.Memo(accessStreamKey{}, func() any { return t.buildAccessStream() }).([]Access)
}

// accessStreamKey is AccessStream's Memo key.
type accessStreamKey struct{}

// buildAccessStream numbers the sites in one forward pass, the stream's only
// map pass, then fills NextUse in a backward pass indexed by site.
func (t *Trace) buildAccessStream() []Access {
	n := 0
	for i := range t.Records {
		if t.Records[i].Taken {
			n++
		}
	}
	accesses := make([]Access, 0, n)
	sites := make(map[uint64]int32, 1<<12)
	for i := range t.Records {
		r := &t.Records[i]
		if !r.Taken {
			continue
		}
		site, ok := sites[r.PC]
		if !ok {
			if len(sites) == math.MaxInt32 {
				panic("trace: too many static branches for 32-bit site numbers")
			}
			site = int32(len(sites))
			sites[r.PC] = site
		}
		accesses = append(accesses, Access{
			PC:      r.PC,
			Target:  r.Target,
			NextUse: NoNextUse,
			Site:    site,
			Type:    r.Type,
		})
	}
	last := make([]int, len(sites))
	for i := range last {
		last[i] = NoNextUse
	}
	for i := len(accesses) - 1; i >= 0; i-- {
		a := &accesses[i]
		a.NextUse = last[a.Site]
		last[a.Site] = i
	}
	return accesses
}

// SiteCount returns one more than the largest Site in accesses: the length
// of a slice indexed by site. For a whole AccessStream it is the number of
// static taken branches; a sub-slice of one keeps the whole stream's
// numbering, so its sites need not start at zero or be contiguous.
func SiteCount(accesses []Access) int {
	n := int32(-1)
	for i := range accesses {
		n = max(n, accesses[i].Site)
	}
	return int(n) + 1
}
