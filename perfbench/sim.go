package main

import (
	"fmt"
	"time"

	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/trace"
)

// simStats is the part of a core.Result an op must reproduce exactly on
// every pass.
type simStats struct {
	Instructions, Cycles                         uint64
	BTB                                          btb.Stats
	PrefetchFills, BTBMissRedirects              uint64
	DirLookups, DirMispredicts                   uint64
	RASMispredicts, IBTBMispredicts              uint64
	RedirectStall, ICacheStall, DataStall        uint64
	ICacheStallByLevel                           [4]uint64
	InstrL1Misses, InstrL2Misses, InstrLLCMisses uint64
}

func statsOf(r *core.Result) simStats {
	return simStats{
		Instructions: r.Instructions, Cycles: r.Cycles, BTB: r.BTB,
		PrefetchFills: r.PrefetchFills, BTBMissRedirects: r.BTBMissRedirects,
		DirLookups: r.DirLookups, DirMispredicts: r.DirMispredicts,
		RASMispredicts: r.RASMispredicts, IBTBMispredicts: r.IBTBMispredicts,
		RedirectStall: r.RedirectStall, ICacheStall: r.ICacheStall, DataStall: r.DataStall,
		ICacheStallByLevel: r.ICacheStallByLevel,
		InstrL1Misses:      r.InstrL1Misses, InstrL2Misses: r.InstrL2Misses, InstrLLCMisses: r.InstrLLCMisses,
	}
}

// simCell is one (app, configuration) cell of an in-process simulation
// grid. config returns a fresh configuration per op: prefetchers and
// observers carry state and must not be shared between runs.
type simCell struct {
	app, kind int
	name      string
	tr        *trace.Trace
	config    func() core.Config

	first  *simStats // the first pass's statistics
	res    *core.Result
	failed bool
}

// simGrid drives the cells of timing-grid or prefetch-observed: each op is
// one core.Run of one cell, in the seed's order.
type simGrid struct {
	cells []*simCell
	order []int
	// replay, when the run is traced, replays the op's inputs through one
	// layer at a time and returns the summed replay time that models the
	// op's own work (for core.self_ms).
	replay func(e *env, c *simCell, res *core.Result, root, op int) (time.Duration, error)

	selfSum time.Duration // traced: Σ core.Run − Σ modelled replays
	runs    int           // traced: core.Run calls behind selfSum
	twins   twins         // traced: the leading ops' core.Run time, traced and untraced
}

// op runs the i-th op and checks that its statistics repeat.
func (g *simGrid) op(e *env, i int) (opSample, error) {
	c := g.cells[g.order[i%len(g.order)]]
	return g.twins.pair(e, i, func() (opSample, error) { return g.run(e, c, i) }, func() (opSample, error) {
		t0 := time.Now()
		core.Run(c.tr, c.config())
		return opSample{dur: time.Since(t0)}, nil
	})
}

// run is one op on cell c: its core.Run and, when traced, its replays.
func (g *simGrid) run(e *env, c *simCell, i int) (opSample, error) {
	root := e.tr.begin("op", -1, i)
	var res *core.Result
	d := e.timed("core.Run", root, i, func() { res = core.Run(c.tr, c.config()) })
	var replayErr error
	if e.traced() {
		var modelled time.Duration
		modelled, replayErr = g.replay(e, c, res, root, i)
		g.selfSum += d - modelled
		g.runs++
	}
	e.tr.end(root)

	s := opSample{dur: d, instr: c.tr.Instructions()}
	st := statsOf(res)
	switch {
	case c.first == nil:
		c.first, c.res = &st, res
	case *c.first != st:
		c.failed = true
		return s, fmt.Errorf("%s: statistics differ from the first pass (%+v vs %+v)", c.name, st, *c.first)
	}
	if replayErr != nil {
		c.failed = true
		return s, fmt.Errorf("%s: %w", c.name, replayErr)
	}
	return s, nil
}

// failCell fails a cell whose op completed, for a check across cells.
func failCell(rep *report, c *simCell, err error) {
	if !c.failed {
		c.failed = true
		rep.fail(err)
	}
}

// replayCore replays the parts of core.Run every op has — TAGE, the demand
// BTB (unless the op prefetches, see replayPrefetchOp), RAS/IBTB, the I-cache
// walk and the data loads — checks the TAGE and BTB counts against the
// op's Result, and returns the replay time that models the op.
func replayCore(e *env, ctr counters, cfg core.Config, tr *trace.Trace, res *core.Result, policy string, root, op int) (time.Duration, error) {
	recs := tr.Records
	warm := warmupEnd(cfg, recs)
	var tc tageCounts
	var tg targetCounts
	var ic icacheCounts
	var loads uint64
	total := e.timed("replay.tage", root, op, func() { tc = replayTAGE(recs, warm) })
	total += e.timed("replay.target", root, op, func() { tg = replayTargets(recs, warm, cfg) })
	total += e.timed("replay.icache", root, op, func() { ic = replayICache(recs, warm) })
	total += e.timed("replay.loads", root, op, func() { loads = replayLoads(recs, cfg) })
	ctr.add("tage.calls", tc.calls)
	ctr.add("tage.lookups", tc.lookups)
	ctr.add("tage.mispredicts", tc.mispredicts)
	ctr.add("target.calls", tg.calls)
	ctr.add("icache.calls", ic.calls)
	ctr.add("icache.fetches", ic.fetches)
	ctr.add("icache.l1misses", ic.l1Misses)
	ctr.add("loads.calls", loads)
	if tc.lookups != res.DirLookups || tc.mispredicts != res.DirMispredicts {
		return total, fmt.Errorf("TAGE replay %d lookups/%d mispredicts, core.Run %d/%d",
			tc.lookups, tc.mispredicts, res.DirLookups, res.DirMispredicts)
	}
	if tg.rasMispredicts != res.RASMispredicts || tg.ibtbMispredicts != res.IBTBMispredicts {
		return total, fmt.Errorf("RAS/IBTB replay %d/%d mispredicts, core.Run %d/%d",
			tg.rasMispredicts, tg.ibtbMispredicts, res.RASMispredicts, res.IBTBMispredicts)
	}
	if ic.l1Misses != res.InstrL1Misses {
		return total, fmt.Errorf("I-cache replay %d L1I misses, core.Run %d", ic.l1Misses, res.InstrL1Misses)
	}
	if cfg.Prefetcher != nil {
		return total, nil
	}
	acc := tr.AccessStream()
	warmAcc := takenBefore(recs, warm)
	var st btb.Stats
	total += e.timed("replay.btb."+policy, root, op, func() { st = replayBTB(acc, warmAcc, cfg) })
	ctr.add("btb.calls."+policy, uint64(len(acc)))
	ctr.add("btb.accesses."+policy, st.Accesses)
	ctr.add("btb.hits."+policy, st.Hits)
	if st.Accesses != res.BTB.Accesses || st.Hits != res.BTB.Hits || st.Misses != res.BTB.Misses {
		return total, fmt.Errorf("BTB replay %d accesses/%d hits/%d misses, core.Run %d/%d/%d",
			st.Accesses, st.Hits, st.Misses, res.BTB.Accesses, res.BTB.Hits, res.BTB.Misses)
	}
	return total, nil
}

// counters are the per-layer call and outcome counts of a traced run.
type counters map[string]uint64

func (c counters) add(name string, n uint64) { c[name] += n }

// coreLayerMetrics reports the layers every simulation op enters.
func coreLayerMetrics(rep *report, g *simGrid, lt map[string]layerTime, ctr counters) {
	rep.metrics["core.run_ms"] = meanMs(lt, "core.Run")
	if g.runs > 0 {
		rep.metrics["core.self_ms"] = float64(g.selfSum) / float64(g.runs) / float64(time.Millisecond)
	}
	rep.metrics["bpred.tage_ns"] = perCall(lt, "replay.tage", ctr["tage.calls"])
	rep.metrics["bpred.mispredict_pct"] = pctOf(ctr["tage.mispredicts"], ctr["tage.lookups"])
	rep.metrics["btb.target_ns"] = perCall(lt, "replay.target", ctr["target.calls"])
	rep.metrics["cache.fetch_instr_ns"] = perCall(lt, "replay.icache", ctr["icache.calls"])
	rep.metrics["cache.load_data_ns"] = perCall(lt, "replay.loads", ctr["loads.calls"])
	rep.metrics["cache.l1i_miss_pct"] = pctOf(ctr["icache.l1misses"], ctr["icache.fetches"])
	rep.metrics["tracing.overhead_pct"] = g.twins.overheadPct()
}
