package attribution

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"thermometer/internal/detmap"
)

// BranchRegret aggregates per static branch: how often it was the victim of
// an eviction or bypass decision, and how many later misses those decisions
// were charged for.
type BranchRegret struct {
	PC uint64 `json:"pc"`
	SetRegret
}

// MissClasses is the report form of the classifier counters. Compulsory,
// Capacity, and Conflict always sum to Total (the taxonomy is exhaustive).
type MissClasses struct {
	Total      uint64 `json:"total"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
}

// RegretSummary is the report form of the regret tracer counters.
type RegretSummary struct {
	// Decisions = Evictions + Bypasses recorded since the last reset;
	// AgreeOPT of them matched Belady's choice over the same residents.
	Decisions uint64  `json:"decisions"`
	Evictions uint64  `json:"evictions"`
	Bypasses  uint64  `json:"bypasses"`
	AgreeOPT  uint64  `json:"agree_opt"`
	AgreeRate float64 `json:"agree_rate"`
	// Charged counts policy misses the same-geometry Belady shadow would
	// have hit; Unattributed is the subset with no responsible decision on
	// record; Windfall counts policy hits the shadow would have missed.
	// Net = Charged − Windfall = policy misses − shadow OPT misses.
	Charged      uint64 `json:"charged"`
	Unattributed uint64 `json:"unattributed"`
	Windfall     uint64 `json:"windfall"`
	Net          int64  `json:"net"`
	// ShadowOPTMisses is the same-geometry Belady shadow's miss count over
	// the identical demand stream.
	ShadowOPTMisses uint64 `json:"shadow_opt_misses"`
}

// Report is a consistent snapshot of everything the Recorder knows; it is
// the JSON body served at /debug/attrib and the source for the text report.
type Report struct {
	Policy   string `json:"policy"`
	Sets     int    `json:"sets"`
	Ways     int    `json:"ways"`
	Accesses uint64 `json:"accesses"`
	Hits     uint64 `json:"hits"`

	Misses MissClasses   `json:"misses"`
	Regret RegretSummary `json:"regret"`
	// ChargedByTemp[v][i] counts charged misses by the responsible
	// decision's victim temperature v and incoming temperature i (a bypass
	// charges the diagonal). It sums to Regret.Charged − Unattributed: a
	// miss with no decision on record has no temperatures.
	ChargedByTemp [4][4]uint64 `json:"charged_by_temp"`

	// TopBranches are the static branches whose evictions/bypasses were
	// charged the most regret, descending (ties broken by ascending PC).
	TopBranches []BranchRegret `json:"top_branches"`
	// PerSet is indexed by BTB set.
	PerSet []SetRegret `json:"per_set"`
	// RecentDecisions is the decision ring oldest-first; DecisionsDropped
	// counts decisions that fell off the ring.
	RecentDecisions  []Decision `json:"recent_decisions"`
	DecisionsDropped uint64     `json:"decisions_dropped"`
	// Heat is the epoch heatmap oldest-first; HeatDropped counts rows that
	// fell off the ring.
	Heat        []HeatRow `json:"heat"`
	HeatDropped uint64    `json:"heat_dropped"`
}

// Counts returns the headline counters (accesses, hits, classified misses,
// regret) without materialising rings or tables.
func (r *Recorder) Counts() (accesses, hits uint64, misses MissClasses, regret RegretSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.accesses, r.c.hits, r.c.misses, r.regretSummary()
}

// regretSummary completes the counters' report form with the derived
// fields. Caller holds r.mu.
func (r *Recorder) regretSummary() RegretSummary {
	s := r.c.regret
	s.Decisions = s.Evictions + s.Bypasses
	s.Net = int64(s.Charged) - int64(s.Windfall)
	if s.Decisions > 0 {
		s.AgreeRate = float64(s.AgreeOPT) / float64(s.Decisions)
	}
	return s
}

// Report snapshots the recorder. topN bounds TopBranches (<= 0 means 20).
func (r *Recorder) Report(topN int) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Every table is built non-nil, so the JSON body carries arrays even
	// when a client snapshots the recorder before Bind.
	branches := make([]BranchRegret, 0, 64)
	for _, pc := range detmap.SortedKeys(r.index) {
		if b := &r.branches[r.index[pc]]; b.regret != (SetRegret{}) {
			branches = append(branches, BranchRegret{pc, b.regret})
		}
	}
	return &Report{
		Policy:           r.policy,
		Sets:             r.sets,
		Ways:             r.ways,
		Accesses:         r.c.accesses,
		Hits:             r.c.hits,
		Misses:           r.c.misses,
		Regret:           r.regretSummary(),
		ChargedByTemp:    r.c.byTemp,
		TopBranches:      topRows(branches, topN, func(b *BranchRegret) uint64 { return b.Charged }),
		PerSet:           append([]SetRegret{}, r.perSet...),
		RecentDecisions:  r.decisions.Slice(),
		DecisionsDropped: r.decisions.Dropped(),
		Heat:             r.heat.Slice(),
		HeatDropped:      r.heat.Dropped(),
	}
}

// WriteText renders a human-readable attribution report (the btbsim -attrib
// output): the miss taxonomy, regret-vs-OPT accounting, and the topN most
// regretted branches.
func (r *Recorder) WriteText(w io.Writer, topN int) error {
	rep := r.Report(topN)
	pct := func(n uint64, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("attribution report (policy=%s, %d sets x %d ways)\n", rep.Policy, rep.Sets, rep.Ways)
	p("  demand accesses   %12d\n", rep.Accesses)
	p("  hits              %12d (%.2f%%)\n", rep.Hits, pct(rep.Hits, rep.Accesses))
	p("  misses            %12d\n", rep.Misses.Total)
	p("    compulsory      %12d (%.2f%%)\n", rep.Misses.Compulsory, pct(rep.Misses.Compulsory, rep.Misses.Total))
	p("    capacity        %12d (%.2f%%)\n", rep.Misses.Capacity, pct(rep.Misses.Capacity, rep.Misses.Total))
	p("    conflict        %12d (%.2f%%)\n", rep.Misses.Conflict, pct(rep.Misses.Conflict, rep.Misses.Total))
	p("  replacement decisions %8d (%d evictions, %d bypasses)\n",
		rep.Regret.Decisions, rep.Regret.Evictions, rep.Regret.Bypasses)
	p("    agree with OPT  %12d (%.2f%%)\n", rep.Regret.AgreeOPT, 100*rep.Regret.AgreeRate)
	p("  regret vs same-geometry OPT\n")
	p("    charged misses  %12d (unattributed %d)\n", rep.Regret.Charged, rep.Regret.Unattributed)
	p("    windfall hits   %12d\n", rep.Regret.Windfall)
	p("    net (= misses - OPT misses) %4d (OPT misses %d)\n", rep.Regret.Net, rep.Regret.ShadowOPTMisses)
	p("  charged misses by temperature (victim x incoming)\n")
	for v, row := range rep.ChargedByTemp {
		p("    victim %d:", v)
		for _, n := range row {
			p(" %10d", n)
		}
		p("\n")
	}
	if len(rep.TopBranches) > 0 {
		p("  top regretted branches (by charged misses)\n")
		p("    %-18s %10s %10s %10s\n", "pc", "charged", "evictions", "bypasses")
		for i := range rep.TopBranches {
			b := &rep.TopBranches[i]
			p("    %-#18x %10d %10d %10d\n", b.PC, b.Charged, b.Evictions, b.Bypasses)
		}
	}
	p("  decision ring: %d retained, %d dropped; heatmap: %d rows retained, %d dropped\n",
		len(rep.RecentDecisions), rep.DecisionsDropped, len(rep.Heat), rep.HeatDropped)
	_, err := w.Write(b.Bytes())
	return err
}

// WriteHeatCSV emits the retained heatmap rows as CSV: one row per epoch
// sample with end_instr, then per-set valid counts, then per-set temperature
// sums.
func (r *Recorder) WriteHeatCSV(w io.Writer) error {
	rep := r.Report(1)
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("end_instr")
	for s := 0; s < rep.Sets; s++ {
		p(",valid_%d", s)
	}
	for s := 0; s < rep.Sets; s++ {
		p(",temp_%d", s)
	}
	p("\n")
	for i := range rep.Heat {
		row := &rep.Heat[i]
		p("%d", row.EndInstr)
		for _, v := range row.Valid {
			p(",%d", v)
		}
		for _, v := range row.TempSum {
			p(",%d", v)
		}
		p("\n")
	}
	_, err := w.Write(b.Bytes())
	return err
}

// topRows sorts rows by key, largest first, and keeps the first n (n <= 0
// means 20). The sort is stable, so rows built in PC order break ties by
// ascending PC.
func topRows[T any](rows []T, n int, key func(*T) uint64) []T {
	if n <= 0 {
		n = 20
	}
	sort.SliceStable(rows, func(i, j int) bool { return key(&rows[i]) > key(&rows[j]) })
	return rows[:min(n, len(rows))]
}
