package main

import (
	"fmt"
	"time"

	"thermometer/internal/attribution"
	"thermometer/internal/core"
	"thermometer/internal/hintqual"
	"thermometer/internal/prefetch"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
	"thermometer/internal/xrand"
)

// The five prefetch-observed configurations, in cell order.
const (
	pfConfluence    = iota // Confluence + LRU
	pfShotgun              // Shotgun + LRU, Shotgun's BTB partition
	pfTwig                 // Twig (trained on the training input) + Thermometer
	pfObserved             // Thermometer + observer epoch grid, attribution, hint-quality audit
	pfConfluenceObs        // Confluence + LRU + observer recording epochs and events
)

var pfNames = []string{"confluence-lru", "shotgun-lru", "twig-thermometer", "thermometer-observed", "confluence-lru-observed"}

// pfPrefetchers names each configuration's prefetcher ("" for none).
var pfPrefetchers = []string{"confluence", "shotgun", "twig", "", "confluence"}

// The observed configurations attach their observers the way btbsim does
// with its default flags: -epoch 100000 (epoch length in retired
// instructions) and, for the run that records events (-events or -http),
// -eventcap 1<<20. btbsim is the only caller that attaches attribution and
// the hint-quality audit together, and the only one that records events.
const (
	pfEpoch  = 100000
	pfEvents = 1 << 20
)

// pfApp holds one app's prefetch-observed inputs: a quarter-length trace of
// a test input, and the hints and Twig table trained on a quarter-length
// trace of the training input 0.
type pfApp struct {
	test  *trace.Trace
	meta  *core.TraceMeta
	hints *profile.HintTable
	twig  *prefetch.Twig
}

// testInputs picks each app's test input: input 1 (the first of Fig 13's
// test inputs) on seed 0, otherwise one of inputs 1-3.
func testInputs(seed uint64, n int) []int {
	in := make([]int, n)
	rng := xrand.New(xrand.Mix64(seed ^ 0x7465_7374))
	for i := range in {
		in[i] = 1
		if seed != 0 {
			in[i] = 1 + rng.Intn(3)
		}
	}
	return in
}

// pfConfig is the configuration of one prefetch-observed cell, with fresh
// prefetcher and observer state.
func pfConfig(a *pfApp, kind int) core.Config {
	cfg := core.DefaultConfig()
	switch kind {
	case pfConfluence:
		cfg.NewPolicy = newPolicy("lru")
		cfg.Prefetcher = prefetch.NewConfluence(a.meta)
	case pfShotgun:
		cfg.NewPolicy = newPolicy("lru")
		cfg.Prefetcher = prefetch.NewShotgun(a.meta)
		cfg.ShotgunPartition = true
	case pfTwig:
		cfg.NewPolicy = newPolicy("thermometer")
		cfg.Hints = a.hints
		cfg.Prefetcher = a.twig
	case pfObserved:
		cfg.NewPolicy = newPolicy("thermometer")
		cfg.Hints = a.hints
		cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: pfEpoch})
		cfg.Attribution = attribution.New(attribution.Options{})
		cfg.HintQual = hintqual.New(hintqual.Options{})
	case pfConfluenceObs:
		cfg.NewPolicy = newPolicy("lru")
		cfg.Prefetcher = prefetch.NewConfluence(a.meta)
		cfg.Observer = telemetry.New(telemetry.Options{EpochInterval: pfEpoch, EventCap: pfEvents})
	default:
		panic("perfbench: unknown prefetch-observed config")
	}
	return cfg
}

func runPrefetchObserved(e *env) (*report, error) {
	rep := newReport()
	names := workload.AppNames()
	inputs := testInputs(e.seed, len(names))
	var apps []*pfApp
	build := func() error {
		def := core.DefaultConfig()
		apps = make([]*pfApp, len(names))
		for i, name := range names {
			spec, ok := workload.App(name)
			if !ok {
				return fmt.Errorf("unknown app %s", name)
			}
			spec = spec.ScaleLength(1, 4)
			a := &pfApp{}
			var train *trace.Trace
			e.timed("workload.generate", -1, -1, func() { train, a.test = spec.Generate(0), spec.Generate(inputs[i]) })
			e.timed("trace.access_stream", -1, -1, func() { train.AccessStream(); a.test.AccessStream() })
			var err error
			e.timed("profile.profile_trace", -1, -1, func() {
				a.hints, _, err = profile.ProfileTrace(train, def.BTBEntries, def.BTBWays, profile.DefaultConfig())
			})
			if err != nil {
				return fmt.Errorf("profiling %s: %w", name, err)
			}
			e.timed("prefetch.twig_train", -1, -1, func() {
				a.twig = prefetch.TrainTwig(train, prefetch.TwigConfig{Entries: def.BTBEntries, Ways: def.BTBWays})
			})
			a.meta = core.BuildMeta(a.test.AccessStream())
			apps[i] = a
		}
		core.Run(apps[0].test, pfConfig(apps[0], pfObserved)) // warm-up
		return nil
	}
	setup, err := setUp(e, func() { apps = nil }, build)
	if err != nil {
		return nil, err
	}

	g := &simGrid{}
	for ai, a := range apps {
		for k := range pfNames {
			a, k := a, k
			g.cells = append(g.cells, &simCell{
				app: ai, kind: k, name: a.test.Name + "/" + pfNames[k], tr: a.test,
				config: func() core.Config { return pfConfig(a, k) },
			})
		}
	}
	g.order = gridOrder(e.seed, 0x7066_6f72, len(apps), len(pfNames))
	ctr := counters{}
	g.replay = func(e *env, c *simCell, res *core.Result, root, op int) (time.Duration, error) {
		return replayPrefetchOp(e, ctr, apps[c.app], c.kind, res, root, op)
	}
	samples, wall := closedLoop(e, rep, len(g.cells), func(i int) (opSample, error) { return g.op(e, i) })

	// Observing a run must not change it: the observed Confluence cell
	// must reproduce the unobserved one exactly.
	for i := 0; i+pfConfluenceObs < len(g.cells); i += len(pfNames) {
		plain, obs := g.cells[i+pfConfluence], g.cells[i+pfConfluenceObs]
		if plain.first != nil && obs.first != nil && *plain.first != *obs.first {
			failCell(rep, obs, fmt.Errorf("%s: statistics differ from the unobserved run", obs.name))
		}
	}
	e.printf("inputs: test input per app %v, hints and Twig trained on input 0, quarter-length traces\n", inputs)
	if !e.traced() {
		return rep, inprocEndToEnd(e, rep, samples, wall, setup)
	}
	lt := layerTimes(e.tr.snapshot())
	coreLayerMetrics(rep, g, lt, ctr)
	rep.metrics["workload.generate_ms"] = meanMs(lt, "workload.generate")
	rep.metrics["trace.access_stream_ms"] = meanMs(lt, "trace.access_stream")
	rep.metrics["profile.profile_trace_ms"] = meanMs(lt, "profile.profile_trace")
	rep.metrics["prefetch.twig_train_ms"] = meanMs(lt, "prefetch.twig_train")
	rep.metrics["core.build_meta_ms"] = meanMs(lt, "replay.build_meta")
	for _, p := range []string{"confluence", "shotgun", "twig"} {
		rep.metrics["prefetch."+p+"_ns"] = perCall(lt, "replay.prefetch."+p, ctr["prefetch.calls."+p])
	}
	rep.metrics["prefetch.issued_per_kaccess"] = 1000 * float64(ctr["fill.offered"]) / float64(max(ctr["fill.accesses"], 1))
	if n := ctr["fill.offered"]; n > 0 {
		extra := lt["replay.fills"].Busy - lt["replay.fills_demand"].Busy
		rep.metrics["btb.prefetch_fill_ns"] = float64(extra.Nanoseconds()) / float64(n)
	}
	rep.metrics["btb.prefetch_accept_pct"] = pctOf(ctr["fill.applied"], ctr["fill.offered.post"])
	rep.metrics["btb.access_ns.thermometer"] = perCall(lt, "replay.btb.thermometer", ctr["btb.calls.thermometer"])
	rep.metrics["btb.hit_pct.thermometer"] = pctOf(ctr["btb.hits.thermometer"], ctr["btb.accesses.thermometer"])
	rep.metrics["belady.shadow_ns"] = perCall(lt, "replay.shadow", ctr["shadow.calls"])
	rep.metrics["belady.fa_shadow_ns"] = perCall(lt, "replay.fa_shadow", ctr["fa_shadow.calls"])
	bare := meanMs(lt, "consumer.none")
	rep.metrics["telemetry.overhead_ms"] = meanMs(lt, "consumer.telemetry") - bare
	rep.metrics["attribution.overhead_ms"] = meanMs(lt, "consumer.attribution") - bare
	rep.metrics["hintqual.overhead_ms"] = meanMs(lt, "consumer.hintqual") - bare
	return rep, nil
}

// replayPrefetchOp is the traced part of a prefetch-observed op. Beyond
// the layers every op has, it replays the op's prefetcher and its fills
// into the BTB (checked against the op's BTB counts), and for the
// observed Thermometer cell the Belady shadows and the same op with each
// consumer attached alone.
func replayPrefetchOp(e *env, ctr counters, a *pfApp, kind int, res *core.Result, root, op int) (time.Duration, error) {
	cfg := pfConfig(a, kind)
	total, err := replayCore(e, ctr, cfg, a.test, res, "thermometer", root, op)
	if err != nil {
		return total, err
	}
	recs, acc := a.test.Records, a.test.AccessStream()
	warmAcc := takenBefore(recs, warmupEnd(cfg, recs))
	if kind == pfObserved {
		b := newBTB(cfg)
		sets, ways := b.Sets(), b.Ways()
		var n, m uint64
		d := e.timed("replay.shadow", root, op, func() { n = replayShadow(acc, sets, ways) })
		// Attribution and the hint-quality audit each keep one shadow;
		// attribution adds the fully associative one.
		total += 2*d + e.timed("replay.fa_shadow", root, op, func() { m = replayFAShadow(acc, sets*ways) })
		ctr.add("shadow.calls", n)
		ctr.add("fa_shadow.calls", m)
		for _, consumer := range []string{"none", "telemetry", "attribution", "hintqual"} {
			c := pfConfig(a, pfTwig)
			c.Prefetcher = nil
			switch consumer {
			case "telemetry":
				c.Observer = telemetry.New(telemetry.Options{EpochInterval: pfEpoch})
			case "attribution":
				c.Attribution = attribution.New(attribution.Options{})
			case "hintqual":
				c.HintQual = hintqual.New(hintqual.Options{})
			default:
			}
			e.timed("consumer."+consumer, root, op, func() { core.Run(a.test, c) })
		}
		return total, nil
	}
	if cfg.Prefetcher == nil {
		return total, nil
	}

	total += e.timed("replay.build_meta", root, op, func() { core.BuildMeta(acc) })
	name := pfPrefetchers[kind]
	var calls uint64
	var fills []fill
	total += e.timed("replay.prefetch."+name, root, op, func() { calls, fills = replayPrefetcher(cfg.Prefetcher, recs, cfg.PrefetchDelay) })
	ctr.add("prefetch.calls."+name, calls)
	ctr.add("fill.offered", uint64(len(fills)))
	ctr.add("fill.accesses", uint64(len(acc)))

	// The fill cost is the demand-plus-fill replay minus the same demand
	// stream alone.
	e.timed("replay.fills_demand", root, op, func() { replayFills(acc, nil, warmAcc, cfg, a.meta) })
	var fc fillCounts
	total += e.timed("replay.fills", root, op, func() { fc = replayFills(acc, fills, warmAcc, cfg, a.meta) })
	ctr.add("fill.applied", fc.applied)
	ctr.add("fill.offered.post", fc.offered)
	if fc.stats != res.BTB || fc.applied != res.PrefetchFills {
		return total, fmt.Errorf("prefetch replay BTB %+v with %d fills applied, core.Run %+v with %d",
			fc.stats, fc.applied, res.BTB, res.PrefetchFills)
	}
	return total, nil
}
