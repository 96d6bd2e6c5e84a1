// Package attribution audits a run's BTB replacement live, against the
// verdict of the run's shared same-geometry Belady shadow (belady.Shadow,
// stepped by package core, which delivers every BTB probe event to an
// attached Recorder). One Recorder runs two audits; the core.Config field
// it is attached through selects which.
//
// The regret audit (Config.Attribution) explains *which* BTB evictions
// cost cycles and *why* a replacement policy diverges from Belady OPT:
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
// The hint-quality audit (Config.HintQual) asks how well the temperatures
// profiled offline describe the branches the run executes. Each static
// branch accumulates an observed hit-to-taken ratio under the shadow — the
// identical decision procedure the offline profiler thresholded into
// temperature buckets. Three views derive from it:
//
//   - a confusion matrix (profiled bucket × observed bucket, weighted by
//     branches and by demand accesses): profiled-hot-observed-cold cells
//     are wasted protection, profiled-cold-observed-hot cells are missed
//     protection;
//   - hint coverage: the fraction of executed branches (and of demand
//     accesses) whose PC carries an explicit hint rather than the profile's
//     DefaultCategory fallback;
//   - a drift detector: on each telemetry epoch boundary the open window's
//     predicted and observed temperature distributions are compared by L1
//     distance, and windows beyond DriftThreshold are flagged as drift
//     epochs. A profile that matched its input scores near zero; a stale or
//     cross-input profile drifts.
//
// A recorder attached through both fields is one consumer: it takes one
// lock and makes at most one map lookup per probe. Per-branch state of both
// audits lives in one slice behind one PC index, and decisions are kept by
// value, so probes do not allocate once the branch set is warm.
//
// Bounded state: the rings retain the last RingCap decisions, HeatCap
// heatmap rows and WindowCap drift windows; the per-branch table grows with
// the static-branch working set (the same bound as the profiler itself),
// never with trace length.
//
// The Recorder is safe for concurrent use: the simulator mutates it while
// the live debug surfaces (/debug/attrib, /debug/hintqual) read snapshots.
package attribution

import (
	"math"
	"sync"

	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
)

// The recorder's bounds and drift threshold.
const (
	// RingCap is the number of replacement decisions the ring retains.
	RingCap = 4096
	// HeatCap is the number of heatmap epoch rows retained.
	HeatCap = 1024
	// WindowCap is the number of closed drift windows retained.
	WindowCap = 512
	// DriftThreshold is the windowed L1 distance, in [0, 2], beyond which a
	// drift window is flagged as a drift epoch.
	DriftThreshold = 0.25
	// DefaultWindow is the drift-window width, in retired instructions, that
	// the runner's hintqual jobs and the hintqual paper figure close windows
	// on, so both report comparable drift counts.
	DefaultWindow = 20000
)

// Audits selects what a bound Recorder measures. Package core binds
// AuditRegret for Config.Attribution and AuditHints for Config.HintQual,
// and both for a recorder attached through both fields.
type Audits uint8

// The audits.
const (
	AuditRegret Audits = 1 << iota
	AuditHints
)

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

// SetRegret aggregates decisions and charged regret for one BTB set (and,
// inside BranchRegret, for one static branch).
type SetRegret struct {
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

// WindowRow is one closed drift window: the predicted (profiled) and
// observed temperature distributions over the window's demand accesses,
// their L1 distance, and per-set agreement counts for the accuracy heatmap.
type WindowRow struct {
	// StartInstr/EndInstr bound the window on the epoch grid.
	StartInstr uint64 `json:"start_instr"`
	EndInstr   uint64 `json:"end_instr"`
	// Accesses is the number of demand accesses scored in this window.
	Accesses uint64 `json:"accesses"`
	// Predicted[i] counts accesses whose branch the profile put in bucket
	// i; Observed[i] counts accesses whose running Belady-shadow ratio put
	// them there. Both sum to Accesses.
	Predicted []uint64 `json:"predicted"`
	Observed  []uint64 `json:"observed"`
	// L1 is the L1 distance between the normalized distributions, in
	// [0, 2]; Drift reports whether it exceeded DriftThreshold.
	L1    float64 `json:"l1"`
	Drift bool    `json:"drift"`
	// SetAgree/SetTotal give per-BTB-set agreement counts (accesses whose
	// predicted bucket equals the observed bucket) for the heatmap.
	SetAgree []uint32 `json:"set_agree"`
	SetTotal []uint32 `json:"set_total"`
}

// Options is empty: the recorder's bounds are the package constants.
type Options struct{}

// branchState is one static branch's state for both audits.
type branchState struct {
	// seen marks a branch demand-accessed since Bind: its misses are no
	// longer compulsory, and the hint-quality views count it.
	seen bool
	// hinted and predicted are the branch's profile entry (predicted is
	// the DefaultCategory when unhinted).
	hinted    bool
	predicted uint8
	// pending numbers the decision that last denied the branch residency
	// (0: none); its next miss the shadow would have hit is charged there.
	// pendingSet is that decision's set and pendingTemp its victim and
	// incoming temperatures, kept here because the decision may since have
	// left the ring.
	pendingSet  int32
	pendingTemp [2]uint8
	pending     uint64
	// The measured region's counts, zeroed at the warm-up reset:
	// post-warmup demand accesses and the shadow's hits among them, and
	// the decisions against the branch and the misses charged to them.
	accesses, shadowHits uint64
	regret               SetRegret
}

// counts are the measured region's counters, zeroed at the warmup reset.
// regret's derived fields (Decisions, AgreeRate, Net) are filled in by
// regretSummary.
type counts struct {
	accesses, hits              uint64
	misses                      MissClasses
	regret                      RegretSummary
	byTemp                      [4][4]uint64 // charged, by the decision's temperatures
	hintedAccesses, driftEpochs uint64
}

// Recorder is the audit engine. Create with New, attach via
// core.Config.Attribution, core.Config.HintQual or both (alongside a
// telemetry Observer, whose epoch grid the heatmap and the drift windows
// sample on), and read with the Report and HintReport families or the
// debug Handler.
type Recorder struct {
	mu sync.Mutex

	audits     Audits // guarded by mu; zero until Bind
	policy     string // guarded by mu
	sets, ways int    // guarded by mu

	// index maps a PC to its record in branches; reports walk it in PC
	// order.
	index    map[uint64]int32 // guarded by mu
	branches []branchState    // guarded by mu

	c counts // guarded by mu

	// fa is the equal-capacity fully-associative Belady model the miss
	// classifier runs; the same-geometry regret reference is core's shared
	// shadow, whose verdict arrives with each demand event.
	fa *belady.FAShadow // guarded by mu

	// nextUse mirrors the *real* BTB residents' next-use positions (updated
	// on every hit/fill probe), so Belady's choice over the actual set
	// contents is computable at decision time.
	nextUse []int // guarded by mu

	perSet []SetRegret // guarded by mu

	// seq numbers decisions and never restarts; base is its value when the
	// decision ring was last emptied, so decision s is the ring's push
	// s-base-1.
	seq, base uint64                    // guarded by mu
	decisions *telemetry.Ring[Decision] // guarded by mu
	heat      *telemetry.Ring[HeatRow]  // guarded by mu

	// cfg is the profile configuration the hint table was built with (the
	// default configuration when auditing without hints); hints may be nil.
	cfg   profile.Config   // guarded by mu
	hints map[uint64]uint8 // guarded by mu; the table's entries
	cats  int              // guarded by mu; cfg.Categories()

	// Access-weighted confusion matrix, indexed [predicted][observed] with
	// the *running* observed bucket as of each access.
	confAccess [][]uint64 // guarded by mu

	win     WindowRow                  // guarded by mu; the open drift window
	windows *telemetry.Ring[WindowRow] // guarded by mu
}

// New returns an unbound Recorder; the simulator calls Bind at attach time.
func New(Options) *Recorder {
	return &Recorder{
		decisions: telemetry.NewRing[Decision](RingCap),
		heat:      telemetry.NewRing[HeatRow](HeatCap),
		windows:   telemetry.NewRing[WindowRow](WindowCap),
	}
}

// Bind sizes the recorder for one run of the given audits: the policy under
// audit, the BTB geometry, the number of static branches the run's trace
// demand-accesses (it sizes the per-branch table, which still grows past
// it), and the hint table the hint-quality audit scores (nil audits the
// all-default table: coverage is zero and every branch is predicted
// DefaultCategory). It clears all recorded state.
func (r *Recorder) Bind(policy string, sets, ways, branches int, hints *profile.HintTable, audits Audits) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.audits = audits
	r.policy = policy
	r.sets, r.ways = sets, ways
	r.hints, r.cfg = nil, profile.DefaultConfig()
	if hints != nil {
		r.hints, r.cfg = hints.Hints, hints.Config
	}
	r.cats = r.cfg.Categories()
	r.index = make(map[uint64]int32, branches)
	r.branches = make([]branchState, 0, branches)
	if audits&AuditRegret != 0 {
		r.fa = belady.NewFAShadow(sets * ways)
		r.nextUse = make([]int, sets*ways)
	}
	r.reset()
}

// reset zeroes the measured region: counters, regret tables, the branches'
// measured counts, the confusion matrix, the open window and the rings.
// Caller holds r.mu.
func (r *Recorder) reset() {
	r.c = counts{}
	r.perSet = make([]SetRegret, r.sets)
	for i := range r.branches {
		b := &r.branches[i]
		b.accesses, b.shadowHits, b.regret = 0, 0, SetRegret{}
	}
	r.base = r.seq
	r.decisions.Reset()
	r.heat.Reset()
	r.confAccess = makeMatrix(r.cats)
	r.openWindow(0)
	r.windows.Reset()
}

// openWindow starts an empty drift window at instr. Caller holds r.mu.
func (r *Recorder) openWindow(instr uint64) {
	r.win = WindowRow{
		StartInstr: instr,
		Predicted:  make([]uint64, r.cats),
		Observed:   make([]uint64, r.cats),
		SetAgree:   make([]uint32, r.sets),
		SetTotal:   make([]uint32, r.sets),
	}
}

func makeMatrix(n int) [][]uint64 {
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	return m
}

// branch returns pc's record, adding it with its profile entry on first
// sight. The pointer is valid until the next call. Caller holds r.mu.
func (r *Recorder) branch(pc uint64) *branchState {
	i, ok := r.index[pc]
	if !ok {
		i = int32(len(r.branches))
		r.index[pc] = i
		b := branchState{predicted: r.cfg.DefaultCategory}
		if h, ok := r.hints[pc]; ok {
			b.predicted, b.hinted = h, true
		}
		r.branches = append(r.branches, b)
	}
	return &r.branches[i]
}

// OnProbe records one BTB probe event at the given cycle. For demand
// events (hit, insert, bypass) optHit is the shared same-geometry Belady
// shadow's verdict on the same access; both audits score them. Evictions
// and bypasses are replacement decisions for the regret audit. Prefetch
// fills are not demand accesses, but their evictions are still decisions
// and are recorded as such. A ProbeEvict must arrive before its matching
// insert or fill, while the next-use mirror still describes the victim
// (btb.ProbeFunc delivers events in that order).
func (r *Recorder) OnProbe(kind btb.ProbeKind, cycle uint64, set, way int, req *btb.Request, victim *btb.Entry, optHit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b *branchState
	if kind.Demand() && r.audits != 0 {
		b = r.demand(set, req, kind == btb.ProbeHit, optHit)
	}
	if r.audits&AuditRegret == 0 {
		return
	}
	switch kind {
	case btb.ProbeEvict:
		r.decide(cycle, set, way, req, r.branch(victim.PC), victim.PC, victim.Temperature)
		return
	case btb.ProbeBypass:
		r.decide(cycle, set, -1, req, b, req.PC, req.Temperature)
		return
	case btb.ProbePrefetchFill:
		if i, ok := r.index[req.PC]; ok {
			r.branches[i].pending = 0
		}
	case btb.ProbeInsert, btb.ProbeHit:
	}
	r.nextUse[set*r.ways+way] = req.NextUse
}

// demand scores one demand access in set under the bound audits: hit is
// the real BTB's outcome, optHit the same-geometry shadow's. It returns the
// branch's record. Caller holds r.mu.
func (r *Recorder) demand(set int, req *btb.Request, hit, optHit bool) *branchState {
	b := r.branch(req.PC)
	r.c.accesses++
	if r.audits&AuditRegret != 0 {
		r.scoreRegret(b, req, hit, optHit)
	}
	if r.audits&AuditHints != 0 {
		r.scoreHint(b, set, optHit)
	}
	b.seen = true
	return b
}

// scoreRegret classifies a miss and charges regret to the decision that
// denied b residency. Caller holds r.mu.
func (r *Recorder) scoreRegret(b *branchState, req *btb.Request, hit, optHit bool) {
	faHit := r.fa.Access(req.PC, req.NextUse)
	c := &r.c
	if !optHit {
		c.regret.ShadowOPTMisses++
	}
	if hit {
		c.hits++
		if !optHit {
			// The policy kept something Belady sacrificed: a windfall hit.
			c.regret.Windfall++
		}
		return
	}
	c.misses.Total++
	switch {
	case !b.seen: // never demand-accessed before
		c.misses.Compulsory++
	case faHit: // a fully-associative Belady BTB of equal capacity holds it
		c.misses.Conflict++
	default:
		c.misses.Capacity++
	}
	if !optHit {
		return
	}
	// Belady kept this branch; the policy's earlier decision to evict or
	// bypass it costs this miss. The charge counts per set and per branch
	// even when the decision has left the ring or the warm-up reset
	// emptied it.
	c.regret.Charged++
	if b.pending == 0 {
		c.regret.Unattributed++
		return
	}
	if b.pending > r.base {
		if d := r.decisions.At(b.pending - r.base - 1); d != nil {
			d.Regret++
		}
	}
	r.perSet[b.pendingSet].Charged++
	b.regret.Charged++
	c.byTemp[b.pendingTemp[0]][b.pendingTemp[1]]++
}

// scoreHint scores b's access against its profiled bucket. The observed
// bucket is the branch's *running* shadow hit-to-taken ratio including
// this access, so the window distributions track drift as it happens
// rather than only in hindsight. Caller holds r.mu.
func (r *Recorder) scoreHint(b *branchState, set int, optHit bool) {
	b.accesses++
	if optHit {
		b.shadowHits++
	}
	obs := r.cfg.Categorize(float64(b.shadowHits) / float64(b.accesses))
	if b.hinted {
		r.c.hintedAccesses++
	}
	r.confAccess[b.predicted][obs]++
	w := &r.win
	w.Accesses++
	w.Predicted[b.predicted]++
	w.Observed[obs]++
	if set >= 0 && set < r.sets {
		w.SetTotal[set]++
		if b.predicted == obs {
			w.SetAgree[set]++
		}
	}
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
// (record victim, stored temperature victimTemp) from set/way to admit req,
// or (way -1) bypassed req itself. Caller holds r.mu.
func (r *Recorder) decide(cycle uint64, set, way int, req *btb.Request, victim *branchState, victimPC uint64, victimTemp uint8) {
	optWay := r.optChoice(set, req)
	if way < 0 {
		r.c.regret.Bypasses++
		r.perSet[set].Bypasses++
		victim.regret.Bypasses++
	} else {
		r.c.regret.Evictions++
		r.perSet[set].Evictions++
		victim.regret.Evictions++
	}
	if optWay == way {
		r.c.regret.AgreeOPT++
	}
	r.seq++
	// An insert needs no reset of pending: an inserted branch misses again
	// only after an eviction of it, which comes here first.
	victim.pending, victim.pendingSet = r.seq, int32(set)
	// The 2-bit hint encoding bounds a temperature at 3 (§3.4).
	victim.pendingTemp = [2]uint8{min(victimTemp, 3), min(req.Temperature, 3)}
	r.decisions.Push(Decision{
		Cycle: cycle, Index: req.Index, Set: set, Way: way,
		VictimPC: victimPC, IncomingPC: req.PC,
		VictimTemp: victimTemp, IncomingTemp: req.Temperature,
		OPTWay: optWay, Agree: optWay == way,
	})
}

// OnEpoch runs at an epoch boundary, instr retired instructions into the
// measured region. The regret audit appends one heatmap row from the live
// BTB b (an O(capacity) walk); the hint-quality audit closes the open drift
// window.
func (r *Recorder) OnEpoch(instr uint64, b *btb.BTB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.audits&AuditRegret != 0 {
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
	if r.audits&AuditHints != 0 {
		r.closeWindow(instr)
	}
}

// closeWindow closes the open drift window at instr: the accumulated
// predicted and observed distributions are compared by L1 distance,
// flagged against DriftThreshold, and pushed onto the window ring. Empty
// windows are skipped so the series only contains epochs that scored
// accesses. Caller holds r.mu.
func (r *Recorder) closeWindow(instr uint64) {
	w := r.win
	if w.Accesses == 0 {
		r.win.StartInstr = instr
		return
	}
	// L1 distance between the normalized distributions, in [0, 2].
	for i := range w.Predicted {
		w.L1 += math.Abs(float64(w.Predicted[i]) - float64(w.Observed[i]))
	}
	w.L1 /= float64(w.Accesses)
	w.EndInstr = instr
	w.Drift = w.L1 > DriftThreshold
	if w.Drift {
		r.c.driftEpochs++
	}
	r.windows.Push(w)
	r.openWindow(instr)
}

// OnWarmupReset restarts the measurement counters in lockstep with the
// simulator's end-of-warmup statistics reset. Learned state — the FA
// shadow contents, first touches, profile entries, the mirrored next-use
// table and pending decisions — stays trained, exactly like the BTB itself.
func (r *Recorder) OnWarmupReset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reset()
}

// OnFinish ends the run at instr. The hint-quality audit closes its final
// partial drift window — so a run without an epoch grid still scores its
// whole measured region as one window — and each bound audit publishes its
// headline counters on m (nil: no registry): attrib_* for the regret
// audit, hintqual_* for the hint-quality audit.
func (r *Recorder) OnFinish(instr uint64, m *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.audits&AuditHints != 0 {
		r.closeWindow(instr)
	}
	if m == nil {
		return
	}
	if r.audits&AuditRegret != 0 {
		misses, regret := r.c.misses, r.regretSummary()
		m.SetCounter("attrib_miss_compulsory", misses.Compulsory)
		m.SetCounter("attrib_miss_capacity", misses.Capacity)
		m.SetCounter("attrib_miss_conflict", misses.Conflict)
		m.SetCounter("attrib_decisions", regret.Decisions)
		m.SetCounter("attrib_agree_opt", regret.AgreeOPT)
		m.SetCounter("attrib_charged", regret.Charged)
		m.SetCounter("attrib_windfall", regret.Windfall)
	}
	if r.audits&AuditHints != 0 {
		s := r.hintSummary()
		m.SetCounter("hintqual_accesses", s.Accesses)
		m.SetCounter("hintqual_branches", uint64(s.Branches))
		m.SetCounter("hintqual_over_predicted", s.OverPredicted)
		m.SetCounter("hintqual_under_predicted", s.UnderPredicted)
		m.SetCounter("hintqual_windows", s.Windows)
		m.SetCounter("hintqual_drift_epochs", s.DriftEpochs)
	}
}
