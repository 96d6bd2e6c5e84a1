package experiments

import (
	"fmt"

	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/prefetch"
	"thermometer/internal/profile"
	"thermometer/internal/workload"
)

// sensApps are the applications the paper sweeps in Figs 19 and 20.
var sensApps = []string{"cassandra", "drupal", "tomcat"}

// fracOfOPT returns Thermometer's and SRRIP's speedup as a percentage of
// the OPT speedup for the given geometry/config mutation. Hints are
// profiled for the geometry under test (the BTB-size dependency of §3.4).
func fracOfOPT(c *Context, app string, entries, ways int, mut func(*core.Config)) (therm, srrip float64) {
	tr := c.AppTrace(app, 0)
	ht := c.Hints(app, 0, entries, ways, profile.DefaultConfig())
	geo := func(cc *core.Config) {
		cc.BTBEntries = entries
		cc.BTBWays = ways
		if mut != nil {
			mut(cc)
		}
	}
	lru := runPolicy(tr, nil, nil, geo)
	opt := runPolicy(tr, optNew, nil, geo)
	den := core.Speedup(lru, opt)
	if den <= 0 {
		return 0, 0
	}
	th := runPolicy(tr, thermNew, ht, geo)
	sr := runPolicy(tr, func() btb.Policy { return policy.NewSRRIP() }, nil, geo)
	return core.Speedup(lru, th) / den, core.Speedup(lru, sr) / den
}

// sensPair is one (Thermometer, SRRIP) fraction-of-OPT grid cell.
type sensPair struct{ th, sr float64 }

// sensGrid evaluates a points×sensApps grid in parallel; eval computes one
// cell, rows are assembled serially so the table is width-independent.
func sensGrid(c *Context, points int, eval func(point, app int) sensPair) [][]sensPair {
	flat := make([]sensPair, points*len(sensApps))
	c.forEach(len(flat), func(i int) {
		flat[i] = eval(i/len(sensApps), i%len(sensApps))
	})
	rows := make([][]sensPair, points)
	for p := 0; p < points; p++ {
		rows[p] = flat[p*len(sensApps) : (p+1)*len(sensApps)]
	}
	return rows
}

// Fig19 — sensitivity to the number of BTB entries (left) and BTB ways
// (right), as % of the optimal policy's speedup.
func Fig19(c *Context) []*Table {
	left := &Table{
		ID:     "fig19",
		Title:  "% of OPT speedup vs number of BTB entries (4-way)",
		Header: []string{"entries"},
	}
	for _, app := range sensApps {
		left.Header = append(left.Header, "Therm-"+app, "SRRIP-"+app)
	}
	entriesList := []int{1024, 2048, 4096, 8192, 16384, 32768}
	for p, cells := range sensGrid(c, len(entriesList), func(p, a int) sensPair {
		th, sr := fracOfOPT(c, sensApps[a], entriesList[p], 4, nil)
		return sensPair{th, sr}
	}) {
		row := []string{fmt.Sprint(entriesList[p])}
		for _, cell := range cells {
			row = append(row, pct(cell.th), pct(cell.sr))
		}
		left.AddRow(row...)
	}

	right := &Table{
		ID:     "fig19",
		Title:  "% of OPT speedup vs BTB associativity (8192 entries)",
		Header: []string{"ways"},
	}
	for _, app := range sensApps {
		right.Header = append(right.Header, "Therm-"+app, "SRRIP-"+app)
	}
	waysList := []int{4, 8, 16, 32, 64, 128}
	for p, cells := range sensGrid(c, len(waysList), func(p, a int) sensPair {
		th, sr := fracOfOPT(c, sensApps[a], 8192, waysList[p], nil)
		return sensPair{th, sr}
	}) {
		row := []string{fmt.Sprint(waysList[p])}
		for _, cell := range cells {
			row = append(row, pct(cell.th), pct(cell.sr))
		}
		right.AddRow(row...)
	}
	right.Notes = append(right.Notes,
		"paper: Thermometer beats SRRIP at every size and associativity")
	return []*Table{left, right}
}

// Fig20 — sensitivity to the number of temperature categories (left; 2-bit
// hints support up to 4, more categories shown for the quantization study)
// and to the FTQ size (right).
func Fig20(c *Context) []*Table {
	cfg := core.DefaultConfig()
	left := &Table{
		ID:     "fig20",
		Title:  "% of OPT speedup vs number of temperature categories",
		Header: []string{"categories"},
	}
	for _, app := range sensApps {
		left.Header = append(left.Header, "Therm-"+app)
	}
	catsList := []int{2, 3, 4, 8, 16}
	for p, cells := range sensGrid(c, len(catsList), func(p, a int) sensPair {
		cats := catsList[p]
		tr := c.AppTrace(sensApps[a], 0)
		var pcfg profile.Config
		if cats == 3 {
			pcfg = profile.DefaultConfig() // the paper's 50%/80%
		} else {
			res := beladyResult(tr)
			pcfg = profile.Config{
				Thresholds:      profile.QuantileThresholds(res, cats),
				DefaultCategory: uint8(cats / 2),
			}
		}
		ht := c.Hints(sensApps[a], 0, cfg.BTBEntries, cfg.BTBWays, pcfg)
		lru := runPolicy(tr, nil, nil, nil)
		opt := runPolicy(tr, optNew, nil, nil)
		den := core.Speedup(lru, opt)
		th := runPolicy(tr, thermNew, ht, nil)
		frac := 0.0
		if den > 0 {
			frac = core.Speedup(lru, th) / den
		}
		return sensPair{th: frac}
	}) {
		row := []string{fmt.Sprint(catsList[p])}
		for _, cell := range cells {
			row = append(row, pct(cell.th))
		}
		left.AddRow(row...)
	}
	left.Notes = append(left.Notes, "paper: 3-4 categories (2-bit hints) work best")

	right := &Table{
		ID:     "fig20",
		Title:  "% of OPT speedup vs FTQ size (instructions)",
		Header: []string{"ftq"},
	}
	for _, app := range sensApps {
		right.Header = append(right.Header, "Therm-"+app, "SRRIP-"+app)
	}
	ftqList := []int{64, 128, 192, 256}
	for p, cells := range sensGrid(c, len(ftqList), func(p, a int) sensPair {
		th, sr := fracOfOPT(c, sensApps[a], cfg.BTBEntries, cfg.BTBWays, func(cc *core.Config) {
			cc.FTQInstrCap = ftqList[p]
		})
		return sensPair{th, sr}
	}) {
		row := []string{fmt.Sprint(ftqList[p])}
		for _, cell := range cells {
			row = append(row, pct(cell.th), pct(cell.sr))
		}
		right.AddRow(row...)
	}
	right.Notes = append(right.Notes,
		"paper: Thermometer's fraction of OPT is insensitive to FDIP run-ahead depth")
	return []*Table{left, right}
}

// Fig21 — Thermometer combined with the Twig BTB prefetcher: speedups over
// the LRU+Twig baseline.
func Fig21(c *Context) []*Table {
	cfg := core.DefaultConfig()
	return c.appTable(&Table{
		ID:     "fig21",
		Title:  "Speedup (%) over LRU+Twig: replacement under BTB prefetching",
		Header: []string{"app", "SRRIP", "Thermometer", "OPT"},
		Notes:  []string{"paper: Thermometer+Twig 30.9% over LRU+Twig (95.9% of OPT's 32.2%); SRRIP 1.37%"},
	}, workload.AppNames(), true, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		tw := prefetch.TrainTwig(tr, prefetch.TwigConfig{
			Entries: cfg.BTBEntries, Ways: cfg.BTBWays,
		})
		withTwig := func(cc *core.Config) { cc.Prefetcher = tw }
		ht := c.Hints(app, 0, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())

		base := runPolicy(tr, nil, nil, withTwig)
		sp := func(r *core.Result) float64 { return core.Speedup(base, r) }
		return []float64{
			sp(runPolicy(tr, func() btb.Policy { return policy.NewSRRIP() }, nil, withTwig)),
			sp(runPolicy(tr, thermNew, ht, withTwig)),
			sp(runPolicy(tr, optNew, nil, withTwig)),
		}
	})
}
