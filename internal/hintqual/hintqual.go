// Package hintqual audits a deployed Thermometer hint table live: how well
// do the temperatures profiled offline describe the branches the workload
// actually executes?
//
// The recorder scores every demand BTB access against the run's shared
// same-geometry Belady shadow (belady.Shadow, stepped by package core — the
// identical decision procedure the offline profiler uses), so each static
// branch accumulates an *observed* hit-to-taken ratio measured under optimal
// replacement, exactly the quantity the profiler thresholded into
// temperature buckets. Three derived views:
//
//   - a per-static-branch confusion matrix (profiled bucket × observed
//     bucket, both branch-weighted and access-weighted): profiled-hot-
//     observed-cold cells are wasted protection, profiled-cold-observed-hot
//     cells are missed protection;
//   - hint coverage: the fraction of executed branches (and of demand
//     accesses) whose PC carries an explicit hint rather than the profile's
//     DefaultCategory fallback;
//   - a sliding-window drift detector: on each telemetry epoch boundary the
//     window's predicted and observed temperature distributions are closed
//     out and compared by L1 distance; windows beyond a configurable
//     threshold are flagged as drift epochs. A profile that matched its
//     input scores near zero; a stale or cross-input profile drifts.
//
// Bounded state: the drift-window ring retains the last WindowCap rows and
// the per-branch table grows with the static-branch working set (the same
// bound as the profiler itself), never with trace length. The per-access
// path is allocation-free once the branch set is warm (pinned by
// TestRecorderSteadyStateAllocs).
//
// The Recorder is safe for concurrent use: the simulator mutates it while
// the live debug surface (/debug/hintqual) reads snapshots.
package hintqual

import (
	"sync"

	"thermometer/internal/btb"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
)

// DefaultWindow is the drift-window width, in retired instructions, that
// the runner's hintqual jobs and the hintqual paper figure close windows
// on, so both report comparable drift counts.
const DefaultWindow = 20000

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
	// [0, 2]; Drift reports whether it exceeded the recorder's threshold.
	L1    float64 `json:"l1"`
	Drift bool    `json:"drift"`
	// SetAgree/SetTotal give per-BTB-set agreement counts (accesses whose
	// predicted bucket equals the observed bucket) for the heatmap.
	SetAgree []uint32 `json:"set_agree"`
	SetTotal []uint32 `json:"set_total"`
}

// BranchAudit is the report form of one static branch's score.
type BranchAudit struct {
	PC uint64 `json:"pc"`
	// Hinted reports whether the PC carried an explicit profile entry (vs
	// the DefaultCategory fallback).
	Hinted bool `json:"hinted"`
	// Predicted is the profiled bucket; Observed the bucket of the final
	// measured Belady-shadow hit-to-taken ratio.
	Predicted uint8   `json:"predicted"`
	Observed  uint8   `json:"observed"`
	Accesses  uint64  `json:"accesses"`
	Ratio     float64 `json:"ratio"`
}

// Options sizes a Recorder's bounded buffers and tunes the drift detector.
type Options struct {
	// WindowCap is the number of drift-window rows retained (default 512,
	// minimum 1; oldest rows are dropped first).
	WindowCap int
	// DriftThreshold is the windowed L1 distance beyond which a window is
	// flagged as a drift epoch (default 0.25). L1 ranges over [0, 2].
	DriftThreshold float64
}

// branchStat is the per-static-branch audit state.
type branchStat struct {
	predicted  uint8 // profiled bucket (DefaultCategory when unhinted)
	hinted     bool
	accesses   uint64 // post-warmup demand accesses
	shadowHits uint64 // of them, hits in the same-geometry Belady shadow
}

// Recorder is the hint-quality audit engine. Create with New, attach via
// core.Config.HintQual (alongside a telemetry Observer for drift windows),
// and read with Report, Summary, WriteText, or the /debug/hintqual Handler.
type Recorder struct {
	mu sync.Mutex

	policy     string // guarded by mu
	sets, ways int    // guarded by mu

	// cfg is the profile configuration the hint table was built with (the
	// default configuration when auditing without hints); hints may be nil.
	cfg   profile.Config     // guarded by mu
	hints *profile.HintTable // guarded by mu
	cats  int                // guarded by mu; cfg.Categories()

	perBranch map[uint64]*branchStat // guarded by mu

	// Headline counters (post-warmup).
	accesses       uint64 // guarded by mu
	hintedAccesses uint64 // guarded by mu

	// Access-weighted confusion matrix, indexed [predicted][observed] with
	// the *running* observed bucket as of each access.
	confAccess [][]uint64 // guarded by mu

	win         WindowRow                  // guarded by mu; the open drift window, closed by OnEpoch
	windows     *telemetry.Ring[WindowRow] // guarded by mu; last WindowCap closed windows
	driftEpochs uint64                     // guarded by mu

	threshold float64
}

// New returns an unbound Recorder; the simulator calls Bind at attach time.
func New(opts Options) *Recorder {
	if opts.WindowCap < 1 {
		opts.WindowCap = 512
	}
	if opts.DriftThreshold <= 0 {
		opts.DriftThreshold = 0.25
	}
	return &Recorder{windows: telemetry.NewRing[WindowRow](opts.WindowCap), threshold: opts.DriftThreshold}
}

// Threshold returns the drift threshold the recorder flags windows against.
func (r *Recorder) Threshold() float64 { return r.threshold }

// Bind sizes the recorder for one run: the policy under audit, the BTB
// geometry, and the hint table being scored (nil audits the all-default
// table: coverage is zero and every branch is predicted DefaultCategory).
// It clears all recorded state.
func (r *Recorder) Bind(policy string, sets, ways int, hints *profile.HintTable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = policy
	r.sets, r.ways = sets, ways
	r.hints = hints
	if hints != nil {
		r.cfg = hints.Config
	} else {
		r.cfg = profile.DefaultConfig()
	}
	r.cats = r.cfg.Categories()
	r.perBranch = make(map[uint64]*branchStat, 1<<12)
	r.reset()
}

// reset zeroes the measured region: counters, the confusion matrix, the open
// window and the window ring. Caller holds r.mu.
func (r *Recorder) reset() {
	r.accesses, r.hintedAccesses = 0, 0
	r.confAccess = makeMatrix(r.cats)
	r.openWindow(0)
	r.windows.Reset()
	r.driftEpochs = 0
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

// bound reports whether Bind has run (all probe entry points no-op before).
func (r *Recorder) bound() bool { return r.perBranch != nil }

// branch returns the audit state for pc, resolving its profiled bucket on
// first touch. Caller holds r.mu.
func (r *Recorder) branch(pc uint64) *branchStat {
	b := r.perBranch[pc]
	if b == nil {
		b = &branchStat{predicted: r.cfg.DefaultCategory}
		if r.hints != nil {
			if h, ok := r.hints.Hints[pc]; ok {
				b.predicted = h
				b.hinted = true
			}
		}
		r.perBranch[pc] = b
	}
	return b
}

// OnProbe scores one demand access (hit, insert, or bypass — the probe
// kinds that constitute the demand stream) in the given set: optHit is the
// shared same-geometry Belady shadow's verdict on it. Evictions are
// replacement decisions and prefetch fills are not demand accesses, so
// neither is scored. The observed bucket is the branch's *running* shadow
// hit-to-taken ratio including this access, so the window distributions
// track drift as it happens rather than only in hindsight.
func (r *Recorder) OnProbe(kind btb.ProbeKind, _ uint64, set, _ int, req *btb.Request, _ *btb.Entry, optHit bool) {
	if !kind.Demand() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound() {
		return
	}
	b := r.branch(req.PC)
	b.accesses++
	if optHit {
		b.shadowHits++
	}
	obs := r.cfg.Categorize(float64(b.shadowHits) / float64(b.accesses))

	r.accesses++
	if b.hinted {
		r.hintedAccesses++
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

// OnEpoch closes the open drift window at an epoch boundary, instr retired
// instructions into the measured region: the accumulated predicted and
// observed distributions are compared by L1 distance, flagged against the
// threshold, and pushed onto the window ring. Empty windows are skipped so
// the series only contains epochs that scored accesses.
func (r *Recorder) OnEpoch(instr uint64, _ *btb.BTB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound() {
		return
	}
	w := r.win
	if w.Accesses == 0 {
		r.win.StartInstr = instr
		return
	}
	w.EndInstr = instr
	w.L1 = distL1(w.Predicted, w.Observed, w.Accesses)
	w.Drift = w.L1 > r.threshold
	if w.Drift {
		r.driftEpochs++
	}
	r.windows.Push(w)
	r.openWindow(instr)
}

// distL1 is the L1 distance between the two count vectors normalized by
// total (which both sum to): sum_i |p_i - o_i| / total, in [0, 2].
func distL1(pred, obs []uint64, total uint64) float64 {
	var sum float64
	for i := range pred {
		d := float64(pred[i]) - float64(obs[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(total)
}

// OnWarmupReset restarts the measurement counters in lockstep with the
// simulator's end-of-warmup statistics reset. Learned state — the
// per-branch hint resolutions — stays, exactly like the BTB itself; only
// the measured ratios restart.
func (r *Recorder) OnWarmupReset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound() {
		return
	}
	for _, b := range r.perBranch {
		b.accesses, b.shadowHits = 0, 0
	}
	r.reset()
}

// OnFinish closes the final partial drift window at instr — so a run
// without an epoch grid still scores its whole measured region as one
// window — and publishes the summary as hintqual_* metrics on m (nil: no
// registry).
func (r *Recorder) OnFinish(instr uint64, m *telemetry.Registry) {
	r.OnEpoch(instr, nil)
	if m == nil {
		return
	}
	s := r.Summary()
	m.SetCounter("hintqual_accesses", s.Accesses)
	m.SetCounter("hintqual_branches", uint64(s.Branches))
	m.SetCounter("hintqual_over_predicted", s.OverPredicted)
	m.SetCounter("hintqual_under_predicted", s.UnderPredicted)
	m.SetCounter("hintqual_windows", s.Windows)
	m.SetCounter("hintqual_drift_epochs", s.DriftEpochs)
}
