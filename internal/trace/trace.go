// Package trace defines the branch-trace model that the whole repository is
// built around.
//
// A trace is the sequence of *retired taken-or-not-taken branch records* for
// one execution, exactly the information Intel PT provides the Thermometer
// profiler in the paper (§3.1): for every dynamic branch, its PC, its type,
// whether it was taken, and (for taken branches) its target. Records
// additionally carry the length of the sequential basic block that follows
// the branch, which the timing model uses to charge instruction-fetch work.
//
// The same trace is consumed in two ways, mirroring the paper's design:
//
//   - offline, by the Belady profiler (package belady) to compute branch
//     temperatures, and
//   - online, by the cycle simulator (package core) as the program the
//     simulated CPU executes.
package trace

import (
	"fmt"
	"sync"
)

// BranchType classifies a branch record. The distinction matters to the
// frontend model: unconditional direct branches are redirect-detectable at
// decode, conditionals and indirects only at execute; calls and returns
// exercise the RAS; indirect branches exercise the IBTB.
type BranchType uint8

// Branch types.
const (
	CondDirect BranchType = iota // conditional, direct target
	UncondDirect
	Call
	Return
	IndirectJump
	IndirectCall
	numBranchTypes
)

// String returns the conventional short name of the branch type.
func (t BranchType) String() string {
	switch t {
	case CondDirect:
		return "cond"
	case UncondDirect:
		return "jmp"
	case Call:
		return "call"
	case Return:
		return "ret"
	case IndirectJump:
		return "ijmp"
	case IndirectCall:
		return "icall"
	default:
		return fmt.Sprintf("BranchType(%d)", uint8(t))
	}
}

// IsIndirect reports whether the branch target comes from the IBTB rather
// than the BTB's stored target.
func (t BranchType) IsIndirect() bool {
	return t == IndirectJump || t == IndirectCall || t == Return
}

// IsConditional reports whether the branch consults the direction predictor.
func (t BranchType) IsConditional() bool { return t == CondDirect }

// Valid reports whether t is one of the defined branch types.
func (t BranchType) Valid() bool { return t < numBranchTypes }

// Record is one dynamic branch instance.
type Record struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the address control transfers to when the branch is taken.
	// It is meaningful only when Taken is true.
	Target uint64
	// BlockLen is the number of sequential instructions executed after this
	// branch resolves and before the next branch in the trace (the length
	// of the following basic block, the branch itself excluded).
	BlockLen uint16
	// Type is the branch classification.
	Type BranchType
	// Taken reports whether the branch was taken. Unconditional branches,
	// calls, returns, and indirect jumps are always taken.
	Taken bool
}

// Trace is an in-memory branch trace plus cached summary statistics.
type Trace struct {
	// Name identifies the workload (e.g. "kafka#0").
	Name string
	// Records is the dynamic branch sequence.
	Records []Record

	// memo holds Memo's values, one entry per key: values derived purely
	// from Records, which are immutable once a Trace is published.
	memoMu sync.Mutex
	memo   map[any]*memoEntry // guarded by memoMu
}

// memoEntry is one Memo value; once makes its build single-flight.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo returns the value build derives from the trace for key, building it
// at most once per Trace and key: concurrent callers with one key wait for
// the first build and share its result. Per-trace data derived from
// Records (the access stream, the timing core's frontend outcome streams)
// is cached here, so it lives exactly as long as the trace. key must be
// comparable, and callers must treat the value as read-only.
func (t *Trace) Memo(key any, build func() any) any {
	t.memoMu.Lock()
	e := t.memo[key]
	if e == nil {
		if t.memo == nil {
			t.memo = make(map[any]*memoEntry)
		}
		e = new(memoEntry)
		t.memo[key] = e
	}
	t.memoMu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// Len returns the number of dynamic branch records.
func (t *Trace) Len() int { return len(t.Records) }

// Instructions returns the total retired instruction count the trace
// represents: one per branch plus each record's fallthrough block.
func (t *Trace) Instructions() uint64 {
	var n uint64
	for i := range t.Records {
		n += 1 + uint64(t.Records[i].BlockLen)
	}
	return n
}

// TakenBranches returns the number of dynamic taken branches, i.e. the
// number of BTB demand accesses the trace will generate.
func (t *Trace) TakenBranches() uint64 {
	var n uint64
	for i := range t.Records {
		if t.Records[i].Taken {
			n++
		}
	}
	return n
}

// UniqueTakenPCs returns the number of static branches that are taken at
// least once — the BTB working-set size the paper characterizes.
func (t *Trace) UniqueTakenPCs() int {
	seen := make(map[uint64]struct{}, 1<<12)
	for i := range t.Records {
		if t.Records[i].Taken {
			seen[t.Records[i].PC] = struct{}{}
		}
	}
	return len(seen)
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found. It is used by tests and by the trace reader.
func (t *Trace) Validate() error {
	for i := range t.Records {
		r := &t.Records[i]
		if !r.Type.Valid() {
			return fmt.Errorf("trace %q: record %d: invalid branch type %d", t.Name, i, r.Type)
		}
		if !r.Type.IsConditional() && !r.Taken {
			return fmt.Errorf("trace %q: record %d: %s branch must be taken", t.Name, i, r.Type)
		}
		if r.Taken && r.Target == 0 {
			return fmt.Errorf("trace %q: record %d: taken branch with zero target", t.Name, i)
		}
	}
	return nil
}

// BranchStats summarizes one static branch across a trace.
type BranchStats struct {
	PC         uint64
	Type       BranchType
	Executions uint64 // dynamic occurrences
	TakenCount uint64 // times taken
	// TargetDistance is the mean absolute |target − PC| over taken
	// instances, one of the properties Fig 8 correlates with temperature.
	TargetDistance float64
}

// Bias returns the branch's taken fraction (0 when never executed).
func (s *BranchStats) Bias() float64 {
	if s.Executions == 0 {
		return 0
	}
	return float64(s.TakenCount) / float64(s.Executions)
}

// StaticBranches aggregates per-PC statistics over the trace. The result
// map is keyed by branch PC.
func (t *Trace) StaticBranches() map[uint64]*BranchStats {
	m := make(map[uint64]*BranchStats, 1<<12)
	for i := range t.Records {
		r := &t.Records[i]
		s := m[r.PC]
		if s == nil {
			s = &BranchStats{PC: r.PC, Type: r.Type}
			m[r.PC] = s
		}
		s.Executions++
		if r.Taken {
			d := int64(r.Target) - int64(r.PC)
			if d < 0 {
				d = -d
			}
			// Incremental mean over taken instances.
			s.TakenCount++
			s.TargetDistance += (float64(d) - s.TargetDistance) / float64(s.TakenCount)
		}
	}
	return m
}

// Slice returns a shallow sub-trace covering records [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{Name: t.Name, Records: t.Records[lo:hi]}
}
