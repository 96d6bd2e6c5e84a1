package trace

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
	// RecordIndex is the index of this access in the originating
	// Trace.Records slice.
	RecordIndex int
	// NextUse is the index (within the access stream) of the next access
	// with the same PC, or NoNextUse if this is the final one. It is the
	// oracle Belady's algorithm needs.
	NextUse int
	// Type mirrors the record's branch type.
	Type BranchType
}

// AccessStream returns the trace's taken-branch subsequence with next-use
// indices precomputed in a single backward pass. The result is the input to
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

func (t *Trace) buildAccessStream() []Access {
	n := 0
	for i := range t.Records {
		if t.Records[i].Taken {
			n++
		}
	}
	accesses := make([]Access, 0, n)
	for i := range t.Records {
		r := &t.Records[i]
		if !r.Taken {
			continue
		}
		accesses = append(accesses, Access{
			PC:          r.PC,
			Target:      r.Target,
			RecordIndex: i,
			NextUse:     NoNextUse,
			Type:        r.Type,
		})
	}
	last := make(map[uint64]int, 1<<12)
	for i := len(accesses) - 1; i >= 0; i-- {
		pc := accesses[i].PC
		if j, ok := last[pc]; ok {
			accesses[i].NextUse = j
		}
		last[pc] = i
	}
	return accesses
}
