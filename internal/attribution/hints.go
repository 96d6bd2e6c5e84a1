package attribution

import (
	"bytes"
	"fmt"
	"io"

	"thermometer/internal/detmap"
)

// HintSummary is the compact hint-quality digest embedded in runner
// outcomes and published as telemetry counters at the end of an
// instrumented run.
type HintSummary struct {
	// Accesses is the number of demand accesses scored; Branches the number
	// of distinct static branches they touched.
	Accesses uint64 `json:"accesses"`
	Branches int    `json:"branches"`
	// CoverageAccesses/CoverageBranches are the fractions of accesses and
	// branches carrying an explicit hint (vs the DefaultCategory fallback).
	CoverageAccesses float64 `json:"coverage_accesses"`
	CoverageBranches float64 `json:"coverage_branches"`
	// AccuracyBranches is the fraction of branches whose profiled bucket
	// equals the bucket of their final measured Belady ratio;
	// AccuracyAccesses weights the same comparison by demand accesses
	// (running observed bucket at each access).
	AccuracyBranches float64 `json:"accuracy_branches"`
	AccuracyAccesses float64 `json:"accuracy_accesses"`
	// OverPredicted counts branches the profile ran hotter than observed
	// (wasted protection); UnderPredicted counts branches it ran colder
	// (missed protection).
	OverPredicted  uint64 `json:"over_predicted"`
	UnderPredicted uint64 `json:"under_predicted"`
	// Windows is the number of drift windows closed; DriftEpochs how many
	// exceeded the L1 threshold; MaxWindowL1 the largest distance seen in
	// the retained ring.
	Windows     uint64  `json:"windows"`
	DriftEpochs uint64  `json:"drift_epochs"`
	MaxWindowL1 float64 `json:"max_window_l1"`
}

// BranchAudit is the report form of one static branch's hint score.
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

// HintReport is a consistent snapshot of the hint-quality audit and the
// source for the text report.
type HintReport struct {
	Policy     string  `json:"policy"`
	Sets       int     `json:"sets"`
	Ways       int     `json:"ways"`
	Categories int     `json:"categories"`
	Threshold  float64 `json:"threshold"`

	Summary HintSummary `json:"summary"`

	// ConfusionBranches[p][o] counts static branches profiled into bucket p
	// whose final measured ratio lands in bucket o; ConfusionAccesses
	// weights by demand accesses using the running observed bucket.
	ConfusionBranches [][]uint64 `json:"confusion_branches"`
	ConfusionAccesses [][]uint64 `json:"confusion_accesses"`

	// TopMismatches are the most-executed branches whose profiled and
	// observed buckets disagree, descending by accesses (ties by PC).
	TopMismatches []BranchAudit `json:"top_mismatches"`

	// Windows is the drift-window ring oldest-first; WindowsDropped counts
	// rows that fell off it.
	Windows        []WindowRow `json:"windows"`
	WindowsDropped uint64      `json:"windows_dropped"`
}

// hintSummary assembles the digest. Caller holds r.mu.
func (r *Recorder) hintSummary() HintSummary {
	s := HintSummary{
		Accesses:    r.c.accesses,
		Windows:     r.windows.Total(),
		DriftEpochs: r.c.driftEpochs,
	}
	var hintedBranches, matchBranches int
	for i := range r.branches {
		b := &r.branches[i]
		if !b.seen {
			continue
		}
		s.Branches++
		if b.hinted {
			hintedBranches++
		}
		obs := r.observedBucket(b)
		switch {
		case b.predicted == obs:
			matchBranches++
		case b.predicted > obs:
			s.OverPredicted++
		default:
			s.UnderPredicted++
		}
	}
	if s.Branches > 0 {
		s.CoverageBranches = float64(hintedBranches) / float64(s.Branches)
		s.AccuracyBranches = float64(matchBranches) / float64(s.Branches)
	}
	var diag uint64
	for i := range r.confAccess {
		diag += r.confAccess[i][i]
	}
	if s.Accesses > 0 {
		s.CoverageAccesses = float64(r.c.hintedAccesses) / float64(s.Accesses)
		s.AccuracyAccesses = float64(diag) / float64(s.Accesses)
	}
	for _, w := range r.windows.Slice() {
		s.MaxWindowL1 = max(s.MaxWindowL1, w.L1)
	}
	return s
}

// observedBucket is the bucket of b's final measured ratio. Caller holds
// r.mu. A branch with no post-warmup accesses observes bucket 0 (a never-
// accessed branch cannot be protected by any policy).
func (r *Recorder) observedBucket(b *branchState) uint8 {
	if b.accesses == 0 {
		return 0
	}
	return r.cfg.Categorize(float64(b.shadowHits) / float64(b.accesses))
}

// HintSummary snapshots the compact hint-quality digest without building
// the confusion matrices' report forms or the mismatch table.
func (r *Recorder) HintSummary() HintSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hintSummary()
}

// HintReport snapshots the hint-quality audit. topN bounds TopMismatches
// (<= 0 means 20).
func (r *Recorder) HintReport(topN int) *HintReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Every table is built non-nil, so the JSON body carries arrays even
	// when a client snapshots the recorder before Bind.
	rep := &HintReport{
		Policy:            r.policy,
		Sets:              r.sets,
		Ways:              r.ways,
		Categories:        r.cats,
		Threshold:         DriftThreshold,
		Summary:           r.hintSummary(),
		ConfusionBranches: makeMatrix(r.cats),
		ConfusionAccesses: makeMatrix(r.cats),
		Windows:           r.windows.Slice(),
		WindowsDropped:    r.windows.Dropped(),
	}
	for i := range r.confAccess {
		copy(rep.ConfusionAccesses[i], r.confAccess[i])
	}
	mismatches := make([]BranchAudit, 0, 64)
	for _, pc := range detmap.SortedKeys(r.index) {
		b := &r.branches[r.index[pc]]
		if !b.seen {
			continue
		}
		obs := r.observedBucket(b)
		rep.ConfusionBranches[b.predicted][obs]++
		if b.predicted == obs {
			continue
		}
		a := BranchAudit{
			PC: pc, Hinted: b.hinted,
			Predicted: b.predicted, Observed: obs,
			Accesses: b.accesses,
		}
		if b.accesses > 0 {
			a.Ratio = float64(b.shadowHits) / float64(b.accesses)
		}
		mismatches = append(mismatches, a)
	}
	rep.TopMismatches = topRows(mismatches, topN, func(a *BranchAudit) uint64 { return a.Accesses })
	return rep
}

// WriteHintText renders a human-readable hint-quality report (the btbsim
// -hintqual output): coverage, the per-bucket confusion matrix, drift
// epochs, and the topN most-executed mismatched branches.
func (r *Recorder) WriteHintText(w io.Writer, topN int) error {
	rep := r.HintReport(topN)
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	s := &rep.Summary
	p("hint-quality report (policy=%s, %d sets x %d ways, %d buckets)\n",
		rep.Policy, rep.Sets, rep.Ways, rep.Categories)
	p("  demand accesses   %12d over %d static branches\n", s.Accesses, s.Branches)
	p("  hint coverage     %11.2f%% of accesses, %.2f%% of branches\n",
		100*s.CoverageAccesses, 100*s.CoverageBranches)
	p("  hint accuracy     %11.2f%% of branches, %.2f%% of accesses\n",
		100*s.AccuracyBranches, 100*s.AccuracyAccesses)
	p("    over-predicted  %12d branches (profiled hotter than observed)\n", s.OverPredicted)
	p("    under-predicted %12d branches (profiled colder than observed)\n", s.UnderPredicted)
	p("  confusion matrix (branches, profiled bucket x observed bucket)\n")
	for i, row := range rep.ConfusionBranches {
		p("    profiled %d:", i)
		for _, n := range row {
			p(" %10d", n)
		}
		p("\n")
	}
	p("  drift windows     %12d closed, %d flagged (L1 > %.2f), max L1 %.3f\n",
		s.Windows, s.DriftEpochs, rep.Threshold, s.MaxWindowL1)
	if len(rep.TopMismatches) > 0 {
		p("  top mismatched branches (by demand accesses)\n")
		p("    %-18s %9s %8s %8s %10s %7s\n", "pc", "profiled", "observed", "hinted", "accesses", "ratio")
		for i := range rep.TopMismatches {
			b := &rep.TopMismatches[i]
			p("    %-#18x %9d %8d %8t %10d %7.3f\n",
				b.PC, b.Predicted, b.Observed, b.Hinted, b.Accesses, b.Ratio)
		}
	}
	p("  window ring: %d retained, %d dropped\n", len(rep.Windows), rep.WindowsDropped)
	_, err := w.Write(b.Bytes())
	return err
}
