package experiments

import (
	"fmt"

	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/metrics"
	"thermometer/internal/prefetch"
	"thermometer/internal/profile"
	"thermometer/internal/workload"
)

// Fig1 — speedup of state-of-the-art BTB replacement policies (and OPT)
// over the LRU baseline, per application.
func Fig1(c *Context) []*Table {
	return c.appTable(&Table{
		ID:     "fig1",
		Title:  "Speedup (%) of SRRIP/GHRP/Hawkeye/OPT over LRU (with FDIP)",
		Header: []string{"app", "SRRIP", "GHRP", "Hawkeye", "OPT"},
		Notes:  []string{"paper: prior policies avg 1.5%, OPT avg 10.4%"},
	}, workload.AppNames(), false, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		lru := runPolicy(tr, nil, nil, nil)
		var vals []float64
		for _, pf := range policyFactories() {
			vals = append(vals, core.Speedup(lru, runPolicy(tr, pf.New, nil, nil)))
		}
		return append(vals, core.Speedup(lru, runPolicy(tr, optNew, nil, nil)))
	})
}

// Fig2 — limit study: perfect BTB vs perfect direction prediction vs
// perfect I-cache.
func Fig2(c *Context) []*Table {
	return c.appTable(&Table{
		ID:     "fig2",
		Title:  "Limit study speedup (%) over the realistic baseline",
		Header: []string{"app", "Perfect-BTB", "Perfect-BP", "Perfect-I-Cache"},
		Notes:  []string{"paper: perfect BTB 63.2%, perfect BP 11.3%, perfect I-cache 21.5%"},
	}, workload.AppNames(), false, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		base := runPolicy(tr, nil, nil, nil)
		sp := func(mut func(*core.Config)) float64 {
			return core.Speedup(base, runPolicy(tr, nil, nil, mut))
		}
		return []float64{
			sp(func(cfg *core.Config) { cfg.PerfectBTB = true }),
			sp(func(cfg *core.Config) { cfg.PerfectBP = true }),
			sp(func(cfg *core.Config) { cfg.PerfectICache = true }),
		}
	})
}

// Fig3 — L2 instruction misses per kilo-instruction per application.
func Fig3(c *Context) []*Table {
	t := &Table{
		ID:     "fig3",
		Title:  "L2 instruction MPKI (verilator is the outlier)",
		Header: []string{"app", "L2iMPKI"},
	}
	apps := workload.AppNames()
	mpki := make([]float64, len(apps))
	c.forEach(len(apps), func(i int) {
		mpki[i] = runPolicy(c.AppTrace(apps[i], 0), nil, nil, nil).L2iMPKI
	})
	for i, app := range apps {
		t.AddRow(app, f2(mpki[i]))
	}
	t.Notes = append(t.Notes, "paper: verilator >= 300x the others (42 vs 0.01-1)")
	return []*Table{t}
}

// Fig4 — BTB prefetching (Confluence/Shotgun) with LRU and OPT replacement
// vs the perfect BTB.
func Fig4(c *Context) []*Table {
	return c.appTable(&Table{
		ID:    "fig4",
		Title: "Speedup (%) of BTB prefetchers and OPT over LRU (no prefetch)",
		Header: []string{"app", "Confluence-LRU", "Shotgun-LRU", "OPT",
			"Confluence-OPT", "Shotgun-OPT", "Perfect-BTB"},
		Notes: []string{"paper: Confluence-LRU 1.4% mean, Shotgun-LRU slight slowdown, OPT 10.4%, Perfect-BTB 63.2%"},
	}, workload.AppNames(), false, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		meta := core.MetaFor(tr)
		base := runPolicy(tr, nil, nil, nil)
		sp := func(newPolicy func() btb.Policy, mut func(*core.Config)) float64 {
			return core.Speedup(base, runPolicy(tr, newPolicy, nil, mut))
		}
		confluence := func(cfg *core.Config) { cfg.Prefetcher = prefetch.NewConfluence(meta) }
		shotgun := func(cfg *core.Config) {
			cfg.Prefetcher = prefetch.NewShotgun(meta)
			cfg.ShotgunPartition = true
		}
		return []float64{
			sp(nil, confluence),
			sp(nil, shotgun),
			sp(optNew, nil),
			sp(optNew, confluence),
			sp(optNew, shotgun),
			sp(nil, func(cfg *core.Config) { cfg.PerfectBTB = true }),
		}
	})
}

// Fig5 — average transient vs holistic reuse-distance variance.
func Fig5(c *Context) []*Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Transient vs holistic reuse-distance variance (normalized)",
		Header: []string{"app", "transient", "holistic", "ratio"},
	}
	cfg := core.DefaultConfig()
	sets := cfg.BTBEntries / cfg.BTBWays
	apps := workload.AppNames()
	vars := make([]metrics.VarianceSummary, len(apps))
	c.forEach(len(apps), func(i int) {
		vars[i] = metrics.SummarizeVariance(c.AppTrace(apps[i], 0).AccessStream(), sets, 4)
	})
	var st, sh float64
	for i, app := range apps {
		v := vars[i]
		st += v.Transient
		sh += v.Holistic
		t.AddRow(app, f2(v.Transient), f2(v.Holistic), f2(v.Ratio()))
	}
	n := float64(len(apps))
	ratio := 0.0
	if sh > 0 {
		ratio = st / sh
	}
	t.AddRow("Avg", f2(st/n), f2(sh/n), f2(ratio))
	t.Notes = append(t.Notes, "paper: transient variance more than 2x holistic")
	return []*Table{t}
}

// fig67Apps are the applications the paper plots in Figs 6 and 7.
var fig67Apps = []string{"drupal", "kafka", "verilator"}

// Fig6 — distribution of hit-to-taken percentage under OPT, by decile of
// unique taken branches (sorted descending).
func Fig6(c *Context) []*Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Hit-to-taken (%) under OPT at each decile of unique branches",
		Header: append([]string{"% of branches"}, fig67Apps...),
	}
	cols := make([][]float64, len(fig67Apps))
	c.forEach(len(fig67Apps), func(i int) {
		res := beladyResult(c.AppTrace(fig67Apps[i], 0))
		sorted := res.SortedByTemperature()
		for d := 0; d <= 10; d++ {
			idx := d * (len(sorted) - 1) / 10
			cols[i] = append(cols[i], 100*sorted[idx].HitToTaken())
		}
	})
	for d := 0; d <= 10; d++ {
		row := []string{fmt.Sprintf("%d%%", d*10)}
		for i := range fig67Apps {
			row = append(row, f2(cols[i][d]/100))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: ~half of branches hot (>80%), ~20% cold (<=50%); verilator drops steeply")
	return []*Table{t}
}

// Fig7 — cumulative distribution of dynamic BTB accesses over the same
// temperature-sorted branch order.
func Fig7(c *Context) []*Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Dynamic execution CDF (%) at each decile of unique branches",
		Header: append([]string{"% of branches"}, fig67Apps...),
	}
	cols := make([][]float64, len(fig67Apps))
	c.forEach(len(fig67Apps), func(i int) {
		res := beladyResult(c.AppTrace(fig67Apps[i], 0))
		sorted := res.SortedByTemperature()
		weights := make([]float64, len(sorted))
		for j, b := range sorted {
			weights[j] = float64(b.Taken)
		}
		cdf := metrics.CDF(weights)
		for d := 0; d <= 10; d++ {
			idx := d * (len(cdf) - 1) / 10
			cols[i] = append(cols[i], 100*cdf[idx])
		}
	})
	for d := 0; d <= 10; d++ {
		row := []string{fmt.Sprintf("%d%%", d*10)}
		for i := range fig67Apps {
			row = append(row, f2(cols[i][d]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: hot branches account for >90% of dynamic accesses")
	return []*Table{t}
}

// Fig8 — correlation between branch properties and branch temperature.
func Fig8(c *Context) []*Table {
	t := &Table{
		ID:    "fig8",
		Title: "|Spearman| correlation of branch properties vs temperature",
		Header: []string{"app", "type", "target-distance", "bias",
			"avg-reuse-distance"},
	}
	cfg := core.DefaultConfig()
	sets := cfg.BTBEntries / cfg.BTBWays
	apps := workload.AppNames()
	rows := make([][4]float64, len(apps))
	c.forEach(len(apps), func(i int) {
		tr := c.AppTrace(apps[i], 0)
		res := beladyResult(tr)
		stats := tr.StaticBranches()
		reuse := metrics.ReuseSequences(tr.AccessStream(), sets)

		// Spearman's float sums follow the sample order, so walk the
		// branches by PC.
		var temp, typ, dist, bias, avgReuse []float64
		for _, k := range res.PCOrder() {
			b := &res.PerBranch[k]
			s := stats[b.PC]
			if s == nil {
				continue
			}
			seq := reuse[b.PC]
			if len(seq) < 2 {
				continue
			}
			temp = append(temp, b.HitToTaken())
			typ = append(typ, float64(b.Type))
			dist = append(dist, s.TargetDistance)
			bias = append(bias, s.Bias())
			avgReuse = append(avgReuse, metrics.Mean(seq))
		}
		rows[i] = [4]float64{
			metrics.SpearmanAbs(typ, temp),
			metrics.SpearmanAbs(dist, temp),
			metrics.SpearmanAbs(bias, temp),
			metrics.SpearmanAbs(avgReuse, temp),
		}
	})
	for i, app := range apps {
		t.AddRow(app, f2(rows[i][0]), f2(rows[i][1]), f2(rows[i][2]), f2(rows[i][3]))
	}
	t.Notes = append(t.Notes,
		"paper: holistic (avg) reuse distance strongly correlates with temperature; type/distance/bias do not")
	return []*Table{t}
}

// Fig9 — bypass ratio (% of misses not inserted by OPT) per temperature
// category.
func Fig9(c *Context) []*Table {
	pcfg := profile.DefaultConfig()
	return c.appTable(&Table{
		ID:     "fig9",
		Title:  "OPT bypass ratio (%) by temperature category",
		Header: []string{"app", "cold", "warm", "hot"},
		Notes:  []string{"paper: cold branches bypassed in >50% of cases; hot branches almost always inserted"},
	}, workload.AppNames(), false, func(app string) []float64 {
		res := beladyResult(c.AppTrace(app, 0))
		// The sums add integer counts, exact in a float64, so they do not
		// depend on the order of the branches.
		var byp, miss [3]float64
		for k := range res.PerBranch {
			b := &res.PerBranch[k]
			cat := pcfg.Categorize(b.HitToTaken())
			byp[cat] += float64(b.Bypasses)
			miss[cat] += float64(b.Bypasses + b.Inserts)
		}
		vals := make([]float64, 3)
		for j := range vals {
			if miss[j] > 0 {
				vals[j] = byp[j] / miss[j]
			}
		}
		return vals
	})
}
