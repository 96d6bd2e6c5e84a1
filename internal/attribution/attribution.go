// Package attribution turns the telemetry subsystem's aggregate counters
// into explainable per-decision records: *which* BTB evictions cost cycles
// and *why* a replacement policy diverges from Belady OPT.
//
// Three cooperating pieces, all driven from the simulator's probe fan-out
// (package core delivers every BTB probe event to an attached Recorder,
// with the verdict of the run's shared same-geometry Belady shadow):
//
//   - a miss classifier that tags every demand BTB miss as compulsory
//     (first touch), conflict (would hit a fully-associative Belady model of
//     equal capacity), or capacity (misses even fully-associative) — the
//     three classes always sum to the demand miss count;
//   - a regret tracer that records every replacement decision (eviction or
//     bypass) with the policy's choice and Belady's choice over the same
//     residents, then charges later misses of evicted-too-early branches
//     back to the decision that evicted them. The identity
//     charged − windfall = policy misses − OPT misses holds exactly,
//     because every access is scored against that same-geometry shadow;
//   - a per-set occupancy and temperature heatmap sampled on the telemetry
//     epoch grid.
//
// Bounded state: the decision ring retains the last RingCap decisions and
// the heatmap the last HeatCap epoch rows; the regret tables and the
// pending-decision index grow with the static-branch working set (the same
// bound as the profiler itself), never with trace length.
//
// The Recorder is safe for concurrent use: the simulator mutates it while
// the live debug surface (/debug/attrib) reads snapshots.
package attribution

import (
	"sync"

	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/telemetry"
)

// MissClass is the taxonomy bucket of one demand BTB miss.
type MissClass uint8

// Miss classes.
const (
	// MissCompulsory: the branch had never been demand-accessed before.
	MissCompulsory MissClass = iota
	// MissCapacity: a fully-associative Belady-managed BTB of equal
	// capacity would also have missed.
	MissCapacity
	// MissConflict: the fully-associative model holds the branch — the miss
	// is caused by set conflicts under modulo indexing.
	MissConflict
	numMissClasses
)

// String returns the lower-case class name.
func (c MissClass) String() string {
	switch c {
	case MissCompulsory:
		return "compulsory"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	default:
		return "unknown"
	}
}

// Decision is one recorded replacement decision: an eviction, or a bypass
// (the policy declined to insert the incoming branch). For bypasses
// Way = -1 and VictimPC equals IncomingPC (the branch denied residency).
type Decision struct {
	// Cycle is the simulated cycle of the decision; Index its position in
	// the demand access stream.
	Cycle uint64 `json:"cycle"`
	Index int    `json:"index"`
	// Set and Way locate the policy's choice (Way = -1 for a bypass).
	Set int `json:"set"`
	Way int `json:"way"`
	// VictimPC is the displaced branch, IncomingPC the branch inserted in
	// its place.
	VictimPC   uint64 `json:"victim_pc"`
	IncomingPC uint64 `json:"incoming_pc"`
	// VictimTemp and IncomingTemp are the stored Thermometer hint bits.
	VictimTemp   uint8 `json:"victim_temp"`
	IncomingTemp uint8 `json:"incoming_temp"`
	// OPTWay is what Belady would evict given the same residents' future
	// uses (-1: Belady would bypass the incoming branch instead).
	OPTWay int `json:"opt_way"`
	// Agree reports whether the policy made Belady's choice.
	Agree bool `json:"agree"`
	// Regret counts misses charged back to this decision so far.
	Regret uint64 `json:"regret"`
}

// SetRegret aggregates decisions and charged regret for one BTB set.
type SetRegret struct {
	Evictions uint64 `json:"evictions"`
	Bypasses  uint64 `json:"bypasses"`
	Charged   uint64 `json:"charged"`
}

// BranchRegret aggregates per static branch: how often it was the victim of
// an eviction or bypass decision, and how many later misses those decisions
// were charged for.
type BranchRegret struct {
	PC        uint64 `json:"pc"`
	Evictions uint64 `json:"evictions"`
	Bypasses  uint64 `json:"bypasses"`
	Charged   uint64 `json:"charged"`
}

// HeatRow is one heatmap sample: per-set valid-entry counts and stored-
// temperature sums at an epoch boundary.
type HeatRow struct {
	EndInstr uint64   `json:"end_instr"`
	Valid    []uint16 `json:"valid"`
	TempSum  []uint16 `json:"temp_sum"`
}

// Options sizes a Recorder's bounded buffers.
type Options struct {
	// RingCap is the decision ring capacity (default 4096, minimum 1).
	RingCap int
	// HeatCap is the number of heatmap epoch rows retained (default 1024,
	// minimum 1; oldest rows are dropped first).
	HeatCap int
}

// Recorder is the attribution engine. Create with New, attach via
// core.Config.Attribution (alongside a telemetry Observer), and read with
// Report, WriteText, WriteHeatCSV, or the /debug/attrib Handler.
type Recorder struct {
	mu sync.Mutex

	policy     string // guarded by mu
	sets, ways int    // guarded by mu

	// fa is the equal-capacity fully-associative Belady model the miss
	// classifier runs; the same-geometry regret reference is core's shared
	// shadow, whose verdict arrives with each demand event.
	fa   *belady.FAShadow    // guarded by mu
	seen map[uint64]struct{} // guarded by mu

	// nextUse mirrors the *real* BTB residents' next-use positions (updated
	// on every hit/fill probe), so Belady's choice over the actual set
	// contents is computable at decision time.
	nextUse []int // guarded by mu

	c counts // guarded by mu

	// pending maps an evicted (or bypassed) branch to the decision that
	// last denied it residency; its next demand miss is charged there.
	pending   map[uint64]*Decision     // guarded by mu
	perSet    []SetRegret              // guarded by mu
	perBranch map[uint64]*BranchRegret // guarded by mu

	decisions *telemetry.Ring[*Decision] // guarded by mu; last RingCap decisions
	heat      *telemetry.Ring[HeatRow]   // guarded by mu; last HeatCap epoch rows
}

// counts are the measured region's counters, zeroed at the warmup reset.
type counts struct {
	classes                         [numMissClasses]uint64
	accesses, hits, misses          uint64
	optMisses                       uint64 // same-geometry shadow misses
	evictions, bypasses, agreeOPT   uint64
	charged, unattributed, windfall uint64
}

// New returns an unbound Recorder; the simulator calls Bind at attach time.
func New(opts Options) *Recorder {
	if opts.RingCap < 1 {
		opts.RingCap = 4096
	}
	if opts.HeatCap < 1 {
		opts.HeatCap = 1024
	}
	return &Recorder{
		decisions: telemetry.NewRing[*Decision](opts.RingCap),
		heat:      telemetry.NewRing[HeatRow](opts.HeatCap),
	}
}

// Bind sizes the recorder for one run: the policy under audit and the BTB
// geometry. It clears all recorded state.
func (r *Recorder) Bind(policy string, sets, ways int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = policy
	r.sets, r.ways = sets, ways
	r.fa = belady.NewFAShadow(sets * ways)
	r.seen = make(map[uint64]struct{}, 1<<12)
	r.nextUse = make([]int, sets*ways)
	r.pending = make(map[uint64]*Decision, 1<<10)
	r.reset()
}

// reset zeroes the measured region: counters, regret tables and both rings.
// Caller holds r.mu.
func (r *Recorder) reset() {
	r.c = counts{}
	r.perSet = make([]SetRegret, r.sets)
	r.perBranch = make(map[uint64]*BranchRegret, 1<<10)
	r.decisions.Reset()
	r.heat.Reset()
}

// bound reports whether Bind has run (all probe entry points no-op before).
func (r *Recorder) bound() bool { return r.nextUse != nil }

// demand scores one demand access: hit is the real BTB's outcome, optHit
// the same-geometry shadow's. It classifies a miss and charges regret to
// the responsible pending decision. Caller holds r.mu.
func (r *Recorder) demand(req *btb.Request, hit, optHit bool) {
	faHit := r.fa.Access(req.PC, req.NextUse)
	_, seenBefore := r.seen[req.PC]
	if !seenBefore {
		r.seen[req.PC] = struct{}{}
	}

	r.c.accesses++
	if !optHit {
		r.c.optMisses++
	}
	if hit {
		r.c.hits++
		if !optHit {
			// The policy kept something Belady sacrificed: a windfall hit.
			r.c.windfall++
		}
		return
	}
	r.c.misses++
	switch {
	case !seenBefore:
		r.c.classes[MissCompulsory]++
	case faHit:
		r.c.classes[MissConflict]++
	default:
		r.c.classes[MissCapacity]++
	}
	if optHit {
		// Belady kept this branch; the policy's earlier decision to evict
		// or bypass it costs this miss.
		r.c.charged++
		if d := r.pending[req.PC]; d != nil {
			d.Regret++
			r.perSet[d.Set].Charged++
			r.branch(d.VictimPC).Charged++
		} else {
			r.c.unattributed++
		}
	}
}

func (r *Recorder) branch(pc uint64) *BranchRegret {
	b := r.perBranch[pc]
	if b == nil {
		b = &BranchRegret{PC: pc}
		r.perBranch[pc] = b
	}
	return b
}

// optChoice computes Belady's victim for one full set given the mirrored
// residents' next uses: the furthest-reused way, or -1 when the incoming
// request itself is furthest (bypass). Caller holds r.mu.
func (r *Recorder) optChoice(set int, req *btb.Request) int {
	base := set * r.ways
	choice, furthest := -1, req.NextUse
	for w := 0; w < r.ways; w++ {
		if nu := r.nextUse[base+w]; nu > furthest {
			furthest = nu
			choice = w
		}
	}
	return choice
}

// decide records one replacement decision: the policy displaced victimPC
// from set/way to admit req, or (way -1) bypassed req itself. Caller holds
// r.mu.
func (r *Recorder) decide(cycle uint64, set, way int, req *btb.Request, victimPC uint64, victimTemp uint8) {
	optWay := r.optChoice(set, req)
	d := &Decision{
		Cycle: cycle, Index: req.Index, Set: set, Way: way,
		VictimPC: victimPC, IncomingPC: req.PC,
		VictimTemp: victimTemp, IncomingTemp: req.Temperature,
		OPTWay: optWay, Agree: optWay == way,
	}
	b := r.branch(victimPC)
	if way < 0 {
		r.c.bypasses++
		r.perSet[set].Bypasses++
		b.Bypasses++
	} else {
		r.c.evictions++
		r.perSet[set].Evictions++
		b.Evictions++
	}
	if d.Agree {
		r.c.agreeOPT++
	}
	r.pending[victimPC] = d
	r.decisions.Push(d)
}

// OnProbe records one BTB probe event at the given cycle. For demand
// events (hit, insert, bypass) optHit is the shared same-geometry Belady
// shadow's verdict on the same access. Prefetch fills are not demand
// accesses, but their evictions are still replacement decisions and are
// recorded as such. A ProbeEvict must arrive before its matching insert or
// fill, while the next-use mirror still describes the victim
// (btb.ProbeFunc delivers events in that order).
func (r *Recorder) OnProbe(kind btb.ProbeKind, cycle uint64, set, way int, req *btb.Request, victim *btb.Entry, optHit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound() {
		return
	}
	switch kind {
	case btb.ProbeHit:
		r.demand(req, true, optHit)
	case btb.ProbeInsert:
		r.demand(req, false, optHit)
		// The branch is resident again: its pending decision (if any) has
		// been charged for the last time.
		delete(r.pending, req.PC)
	case btb.ProbePrefetchFill:
		delete(r.pending, req.PC)
	case btb.ProbeEvict:
		r.decide(cycle, set, way, req, victim.PC, victim.Temperature)
		return
	case btb.ProbeBypass:
		r.demand(req, false, optHit)
		r.decide(cycle, set, -1, req, req.PC, req.Temperature)
		return
	}
	r.nextUse[set*r.ways+way] = req.NextUse
}

// OnEpoch appends one heatmap row from the live BTB b at an epoch boundary,
// instr retired instructions into the measured region; the walk is
// O(capacity).
func (r *Recorder) OnEpoch(instr uint64, b *btb.BTB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound() {
		return
	}
	row := HeatRow{
		EndInstr: instr,
		Valid:    make([]uint16, r.sets),
		TempSum:  make([]uint16, r.sets),
	}
	for s := 0; s < r.sets && s < b.Sets(); s++ {
		valid, temp := b.SetCensus(s)
		row.Valid[s] = uint16(valid)
		row.TempSum[s] = uint16(temp)
	}
	r.heat.Push(row)
}

// OnWarmupReset restarts the measurement counters in lockstep with the
// simulator's end-of-warmup statistics reset. Learned state — the FA
// shadow contents, the first-touch set, the mirrored next-use table, and
// pending decisions — stays trained, exactly like the BTB itself.
func (r *Recorder) OnWarmupReset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bound() {
		r.reset()
	}
}

// OnFinish publishes the headline counters as attrib_* metrics on m (nil:
// no registry) at the end of a run.
func (r *Recorder) OnFinish(_ uint64, m *telemetry.Registry) {
	if m == nil {
		return
	}
	_, _, misses, regret := r.Counts()
	m.SetCounter("attrib_miss_compulsory", misses.Compulsory)
	m.SetCounter("attrib_miss_capacity", misses.Capacity)
	m.SetCounter("attrib_miss_conflict", misses.Conflict)
	m.SetCounter("attrib_decisions", regret.Decisions)
	m.SetCounter("attrib_agree_opt", regret.AgreeOPT)
	m.SetCounter("attrib_charged", regret.Charged)
	m.SetCounter("attrib_windfall", regret.Windfall)
}
