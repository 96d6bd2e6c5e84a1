// Package belady implements the offline optimal-replacement simulation at
// the heart of Thermometer's profiler (§3.2 of the paper).
//
// Given a branch trace's access stream, it simulates a BTB of the target
// geometry under Belady's algorithm (with bypass) and records, per static
// branch, how many times the branch was taken and how many of those takes
// hit the BTB. The ratio — the *hit-to-taken percentage* — is the branch's
// temperature, the holistic metric the whole technique is built on.
//
// The simulation here is written independently of the online OPT policy in
// package policy; tests cross-check that both produce identical hit counts,
// which guards each against implementation bugs in the other.
package belady

import (
	"cmp"
	"slices"
	"sort"

	"thermometer/internal/trace"
)

// BranchProfile accumulates the per-static-branch measurements the profiler
// extracts from the optimal simulation.
type BranchProfile struct {
	PC   uint64
	Type trace.BranchType
	// Taken counts dynamic taken instances (BTB demand accesses).
	Taken uint64
	// Hits counts accesses that hit under the optimal policy.
	Hits uint64
	// Inserts counts misses that the optimal policy chose to insert.
	Inserts uint64
	// Bypasses counts misses that the optimal policy chose not to insert.
	Bypasses uint64
}

// HitToTaken returns the branch temperature measurement in [0, 1].
func (b *BranchProfile) HitToTaken() float64 {
	if b.Taken == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Taken)
}

// BypassRatio returns Bypasses / (Bypasses + Inserts), the Fig 9 metric.
func (b *BranchProfile) BypassRatio() float64 {
	d := b.Bypasses + b.Inserts
	if d == 0 {
		return 0
	}
	return float64(b.Bypasses) / float64(d)
}

// Result is the output of a Profile run.
type Result struct {
	// PerBranch holds one profile per static branch, in the order of the
	// branches' first accesses: for a trace's whole AccessStream,
	// PerBranch[s] is site s. PCOrder walks it by PC.
	PerBranch []BranchProfile
	// Accesses, Hits, Misses, Bypasses are stream-wide totals.
	Accesses, Hits, Misses, Bypasses uint64
	// Sets and Ways echo the simulated geometry.
	Sets, Ways int
}

// HitRate returns the overall optimal hit rate.
func (r *Result) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// PCOrder returns the indices of PerBranch in ascending PC order, for
// outputs and float sums that must not depend on the stream's order.
func (r *Result) PCOrder() []int {
	order := make([]int, len(r.PerBranch))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return cmp.Compare(r.PerBranch[i].PC, r.PerBranch[j].PC) })
	return order
}

// SortedByTemperature returns the profiled branches ordered by descending
// hit-to-taken percentage — the x-axis ordering of Figs 6 and 7. Ties
// break by PC, so the order is total and does not depend on PerBranch's.
// The pointers are into PerBranch.
func (r *Result) SortedByTemperature() []*BranchProfile {
	out := make([]*BranchProfile, len(r.PerBranch))
	for i := range r.PerBranch {
		out[i] = &r.PerBranch[i]
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].HitToTaken(), out[j].HitToTaken()
		if ti != tj {
			return ti > tj
		}
		return out[i].PC < out[j].PC // deterministic order
	})
	return out
}

// Profile simulates Belady's optimal BTB replacement (with bypass) of the
// given geometry over the access stream and returns per-branch statistics.
//
// entries is the total entry count; ways the associativity; sets are derived
// as entries/ways with plain modulo indexing, matching the online BTB.
func Profile(accesses []trace.Access, entries, ways int) *Result {
	sets := entries / ways
	if sets <= 0 {
		sets = 1
	}
	return ProfileSets(accesses, sets, ways)
}

// beladyEntry is one resident line in the offline simulation.
type beladyEntry struct {
	pc      uint64
	nextUse int
}

// ProfileSets is Profile with an explicit set count. It drives the
// incremental Shadow model (see shadow.go), so the batch profiler and the
// attribution layer's regret reference share one replacement decision
// procedure. accesses may be any sub-slice of a trace's AccessStream;
// per-branch state is found by site, not by PC.
func ProfileSets(accesses []trace.Access, sets, ways int) *Result {
	// slot maps a site to its PerBranch index (-1 until its first access):
	// the identity for a whole stream, whose sites start at zero.
	slot := make([]int32, trace.SiteCount(accesses))
	for i := range slot {
		slot[i] = -1
	}
	res := &Result{
		PerBranch: make([]BranchProfile, 0, len(slot)),
		Sets:      sets,
		Ways:      ways,
	}
	shadow := NewShadow(sets, ways)
	for i := range accesses {
		a := &accesses[i]
		k := slot[a.Site]
		if k < 0 {
			k = int32(len(res.PerBranch))
			slot[a.Site] = k
			res.PerBranch = append(res.PerBranch, BranchProfile{PC: a.PC, Type: a.Type})
		}
		bp := &res.PerBranch[k]
		bp.Taken++

		out, _ := shadow.Access(a.PC, a.NextUse)
		switch out {
		case ShadowHit:
			bp.Hits++
		case ShadowInsert, ShadowEvict:
			bp.Inserts++
		case ShadowBypass:
			bp.Bypasses++
		}
	}
	st := shadow.Stats()
	res.Accesses = st.Accesses
	res.Hits = st.Hits
	res.Misses = st.Misses
	res.Bypasses = st.Bypasses
	return res
}
