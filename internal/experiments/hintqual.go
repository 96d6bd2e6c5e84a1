package experiments

import (
	"fmt"

	"thermometer/internal/attribution"
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
)

func init() {
	Registry["hintqual"] = HintQualFig
}

// HintQualFig runs the hint-quality audit (package attribution) over three
// freshness grades of Thermometer hint table per application — profiled from
// the same input the run executes, from a different input of the same
// application, and from a stale (heavily truncated) capture of the same
// input — and sets the measured hint accuracy against the measured speedup
// over LRU. This is the quantitative version of the paper's claim that
// profile-guided hints transfer across inputs: accuracy should degrade
// same-input → cross-input → stale, and speedup should degrade in the same
// order, so the audit's live score is a usable proxy for re-profiling need.
func HintQualFig(c *Context) []*Table {
	t := &Table{
		ID:    "hintqual",
		Title: "Hint quality vs speedup: same-input, cross-input, and stale profiles",
		Header: []string{"app", "profile", "coverage%", "accuracy%",
			"over", "under", "drift", "speedup%"},
	}
	cfg := core.DefaultConfig()
	apps := []string{"cassandra", "kafka", "mediawiki"}
	const variants = 3
	rows := make([][]string, len(apps)*variants)
	c.forEach(len(apps), func(i int) {
		app := apps[i]
		tr := c.AppTrace(app, 0)
		lru := runPolicy(tr, nil, nil, nil)
		grades := []struct {
			name string
			ht   *profile.HintTable
		}{
			{"same-input", c.Hints(app, 0, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())},
			{"cross-input", c.Hints(app, 1, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())},
			{"stale", staleHints(tr, cfg.BTBEntries, cfg.BTBWays)},
		}
		for v, g := range grades {
			hq := attribution.New(attribution.Options{})
			r := runPolicy(tr, func() btb.Policy { return policy.NewThermometer() }, g.ht,
				func(cc *core.Config) {
					cc.HintQual = hq
					// The observer supplies the epoch grid drift windows
					// close on; the audit itself never perturbs the run.
					cc.Observer = telemetry.New(telemetry.Options{EpochInterval: attribution.DefaultWindow})
				})
			s := hq.HintSummary()
			rows[i*variants+v] = []string{app, g.name,
				pct(s.CoverageAccesses), pct(s.AccuracyBranches),
				fmt.Sprintf("%d", s.OverPredicted), fmt.Sprintf("%d", s.UnderPredicted),
				fmt.Sprintf("%d/%d", s.DriftEpochs, s.Windows),
				pct(core.Speedup(lru, r))}
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"accuracy% is the fraction of profiled branches whose observed Belady temperature lands in the profiled bucket; over/under count branches profiled hotter/colder than observed",
		"drift is flagged windows over closed windows (windowed L1 between the hinted and observed temperature distributions exceeding the recorder threshold)",
		"the accuracy ordering same-input > stale tracks the speedup ordering (pinned by TestHintQualFigOrdering): the live audit score predicts when a profile needs refreshing")
	return []*Table{t}
}

// staleHints profiles the first tenth of a trace at the given geometry,
// modeling a profile captured long before the measured run (the workload's
// steady state never entered the capture).
func staleHints(tr *trace.Trace, entries, ways int) *profile.HintTable {
	stale := &trace.Trace{Name: tr.Name + "-stale", Records: tr.Records[:len(tr.Records)/10]}
	ht, _, err := profile.ProfileTrace(stale, entries, ways, profile.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return ht
}
