package main

import (
	"fmt"
	"time"

	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
	"thermometer/internal/xrand"
)

// fig11AvgRow is the "Avg" row of Fig 11 in results_full.txt (speedup over
// LRU, %, for SRRIP, GHRP, Hawkeye, Thermometer, Thermometer-7979, OPT).
// timing-grid's default seed runs exactly those inputs, so its model
// outputs must print identically.
var fig11AvgRow = []string{"2.01", "-0.13", "0.12", "8.83", "8.32", "15.14"}

// Paper references the model outputs are printed beside. The model is not
// validated against them.
const (
	paperThermSpeedup  = 8.7
	paperOPTSpeedup    = 10.4
	paperThermShareOPT = 83.6
	paperOverGHRP      = 2.25
)

// newPolicy returns the factory for a grid policy name.
func newPolicy(name string) func() btb.Policy {
	switch name {
	case "lru":
		return func() btb.Policy { return policy.NewLRU() }
	case "srrip":
		return func() btb.Policy { return policy.NewSRRIP() }
	case "ghrp":
		return func() btb.Policy { return policy.NewGHRP() }
	case "hawkeye":
		return func() btb.Policy { return policy.NewHawkeye() }
	case "thermometer", "thermometer-7979":
		return func() btb.Policy { return policy.NewThermometer() }
	case "opt":
		return func() btb.Policy { return policy.NewOPT() }
	default:
		panic("perfbench: unknown policy " + name)
	}
}

// sets7979 is the storage-equalized Thermometer BTB: 7979 entries as 1994
// four-way sets, a non-power-of-two set index.
const sets7979 = 7979 / 4

// gridApp holds one app's timing-grid inputs.
type gridApp struct {
	input         int
	tr            *trace.Trace
	hints, hint79 *profile.HintTable
}

// appInputs picks each app's input set: the training input 0 of the
// paper's figures on seed 0, otherwise one of the four inputs per app.
func appInputs(seed uint64, apps []string, salt uint64) []int {
	in := make([]int, len(apps))
	if seed == 0 {
		return in
	}
	rng := xrand.New(xrand.Mix64(seed ^ salt))
	for i := range in {
		in[i] = rng.Intn(4)
	}
	return in
}

func runTimingGrid(e *env) (*report, error) {
	rep := newReport()
	names := workload.AppNames()
	inputs := appInputs(e.seed, names, 0x6772_6964)
	var apps []*gridApp
	build := func() error {
		def := core.DefaultConfig()
		apps = make([]*gridApp, len(names))
		for i, name := range names {
			spec, ok := workload.App(name)
			if !ok {
				return fmt.Errorf("unknown app %s", name)
			}
			a := &gridApp{input: inputs[i]}
			e.timed("workload.generate", -1, -1, func() { a.tr = spec.Generate(a.input) })
			e.timed("trace.access_stream", -1, -1, func() { a.tr.AccessStream() })
			var err error
			e.timed("profile.profile_trace", -1, -1, func() {
				a.hints, _, err = profile.ProfileTrace(a.tr, def.BTBEntries, def.BTBWays, profile.DefaultConfig())
			})
			if err != nil {
				return fmt.Errorf("profiling %s: %w", name, err)
			}
			e.timed("profile.profile_trace", -1, -1, func() {
				a.hint79, _, err = profile.ProfileTrace(a.tr, 7979, def.BTBWays, profile.DefaultConfig())
			})
			if err != nil {
				return fmt.Errorf("profiling %s at 7979 entries: %w", name, err)
			}
			apps[i] = a
		}
		// Warm-up: one op of the grid's slowest policy, untimed.
		core.Run(apps[0].tr, gridConfig(apps[0], "ghrp"))
		return nil
	}
	setup, err := setUp(e, func() { apps = nil }, build)
	if err != nil {
		return nil, err
	}

	g := &simGrid{}
	for ai, a := range apps {
		for pi, p := range btbPolicies {
			a, p := a, p
			g.cells = append(g.cells, &simCell{
				app: ai, kind: pi, name: a.tr.Name + "/" + p, tr: a.tr,
				config: func() core.Config { return gridConfig(a, p) },
			})
		}
	}
	g.order = gridOrder(e.seed, 0x6f72_6465, len(apps), len(btbPolicies))
	ctr := counters{}
	g.replay = func(e *env, c *simCell, res *core.Result, root, op int) (time.Duration, error) {
		return replayCore(e, ctr, c.config(), c.tr, res, btbPolicies[c.kind], root, op)
	}
	samples, wall := closedLoop(e, rep, len(g.cells), func(i int) (opSample, error) { return g.op(e, i) })

	// Cross-cell checks and the model outputs, over the first full pass.
	grid := make([][]*simCell, len(apps))
	for _, c := range g.cells {
		grid[c.app] = append(grid[c.app], c)
	}
	var sums [7]float64
	complete := true
	for ai, row := range grid {
		lru, opt := row[0].res, row[6].res
		if lru == nil || opt == nil {
			complete = false
			continue
		}
		if opt.BTB.Misses > lru.BTB.Misses {
			failCell(rep, row[6], fmt.Errorf("%s: OPT BTB misses %d exceed LRU's %d", apps[ai].tr.Name, opt.BTB.Misses, lru.BTB.Misses))
		}
		for pi, c := range row {
			if c.res == nil {
				complete = false
				continue
			}
			sums[pi] += core.Speedup(lru, c.res)
		}
	}
	rep.check(complete, "the timed section did not complete a full pass over the grid")
	n := float64(len(apps))
	avg := make([]string, 0, 6)
	for pi := 1; pi < len(sums); pi++ {
		avg = append(avg, fmt.Sprintf("%.2f", 100*(sums[pi]/n)))
	}
	therm, opt := 100*(sums[4]/n), 100*(sums[6]/n)
	share := 100 * therm / opt
	e.printf("model (timing-grid, inputs %v): Avg speedup over LRU %% [srrip ghrp hawkeye thermometer thermometer-7979 opt] = %v\n", inputs, avg)
	e.printf("model: thermometer %.2f%% (paper %.1f%%), OPT %.2f%% (paper %.1f%%), thermometer/OPT %.1f%% (paper %.1f%%); base: mean IPC speedup over LRU across %d apps, share = thermometer speedup / OPT speedup; the model is unvalidated against the paper's numbers\n",
		therm, paperThermSpeedup, opt, paperOPTSpeedup, share, paperThermShareOPT, len(apps))
	if e.seed == 0 {
		rep.check(fmt.Sprint(avg) == fmt.Sprint(fig11AvgRow), "seed 0 Fig 11 Avg row %v, results_full.txt has %v", avg, fig11AvgRow)
	}

	if !e.traced() {
		return rep, inprocEndToEnd(e, rep, samples, wall, setup)
	}
	lt := layerTimes(e.tr.snapshot())
	coreLayerMetrics(rep, g, lt, ctr)
	for _, p := range btbPolicies {
		rep.metrics["btb.access_ns."+p] = perCall(lt, "replay.btb."+p, ctr["btb.calls."+p])
		rep.metrics["btb.hit_pct."+p] = pctOf(ctr["btb.hits."+p], ctr["btb.accesses."+p])
	}
	rep.metrics["workload.generate_ms"] = meanMs(lt, "workload.generate")
	rep.metrics["trace.access_stream_ms"] = meanMs(lt, "trace.access_stream")
	rep.metrics["profile.profile_trace_ms"] = meanMs(lt, "profile.profile_trace")
	rep.metrics["model.therm_speedup_pct"] = therm
	rep.metrics["model.opt_speedup_pct"] = opt
	rep.metrics["model.therm_share_of_opt_pct"] = share
	return rep, nil
}

// gridConfig is the Table 1 configuration of one Fig 11 cell.
func gridConfig(a *gridApp, p string) core.Config {
	cfg := core.DefaultConfig()
	cfg.NewPolicy = newPolicy(p)
	switch p {
	case "thermometer":
		cfg.Hints = a.hints
	case "thermometer-7979":
		cfg.Hints = a.hint79
		cfg.BTBSets = sets7979
	default:
	}
	return cfg
}
