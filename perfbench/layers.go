package main

import (
	"thermometer/internal/belady"
	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/core"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// The replays below feed one op's recorded input through one component of
// core.Run at a time, calling only that component's public functions, so
// the traced run can time each layer from outside. Each follows the event
// order core.Run uses, and each resets its counts where core.Run ends
// warm-up, so its counts can be checked against the op's Result.

// warmupEnd is the record index at which core.Run resets statistics.
func warmupEnd(cfg core.Config, recs []trace.Record) int {
	return int(cfg.WarmupFrac * float64(len(recs)))
}

// takenBefore counts taken records in recs[:end]: the number of BTB
// accesses core.Run makes before its warm-up reset.
func takenBefore(recs []trace.Record, end int) int {
	n := 0
	for i := range recs[:end] {
		if recs[i].Taken {
			n++
		}
	}
	return n
}

// tageCounts is the direction predictor's post-warm-up traffic.
type tageCounts struct{ calls, lookups, mispredicts uint64 }

// replayTAGE runs a fresh TAGE over the conditional records.
func replayTAGE(recs []trace.Record, warm int) tageCounts {
	p := bpred.NewTAGE()
	var c tageCounts
	for i := range recs {
		if i == warm {
			c.lookups, c.mispredicts = 0, 0
		}
		r := &recs[i]
		if !r.Type.IsConditional() {
			continue
		}
		c.calls++
		c.lookups++
		if p.Predict(r.PC) != r.Taken {
			c.mispredicts++
		}
		p.Update(r.PC, r.Taken)
	}
	return c
}

// newBTB builds the demand BTB core.Run would build for cfg (monolithic).
func newBTB(cfg core.Config) *btb.BTB {
	if cfg.BTBSets > 0 {
		return btb.NewWithSets(cfg.BTBSets, cfg.BTBWays, cfg.NewPolicy())
	}
	return btb.New(cfg.BTBEntries, cfg.BTBWays, cfg.NewPolicy())
}

// replayBTB drives the access stream through cfg's BTB and policy and
// returns the stats from the warm-up reset (warmAcc accesses in) onward.
func replayBTB(acc []trace.Access, warmAcc int, cfg core.Config) btb.Stats {
	b := newBTB(cfg)
	var req btb.Request
	for i := range acc {
		if i == warmAcc {
			b.ResetStats()
		}
		a := &acc[i]
		req.PC, req.Target, req.Type, req.NextUse, req.Index = a.PC, a.Target, a.Type, a.NextUse, i
		if cfg.Hints != nil {
			req.Temperature = cfg.Hints.Lookup(a.PC)
		}
		b.Access(&req)
	}
	if warmAcc >= len(acc) {
		b.ResetStats()
	}
	return b.Stats()
}

// targetCounts is the RAS/IBTB post-warm-up traffic.
type targetCounts struct{ calls, rasMispredicts, ibtbMispredicts uint64 }

// replayTargets runs a fresh RAS and IBTB over the taken records.
func replayTargets(recs []trace.Record, warm int, cfg core.Config) targetCounts {
	ras, ibtb := btb.NewRAS(cfg.RASEntries), btb.NewIBTB(cfg.IBTBEntries)
	var c targetCounts
	for i := range recs {
		if i == warm {
			c.rasMispredicts, c.ibtbMispredicts = 0, 0
		}
		r := &recs[i]
		if !r.Taken {
			continue
		}
		c.calls++
		switch r.Type {
		case trace.Call:
			ras.Push(r.PC + 5)
		case trace.IndirectCall:
			ras.Push(r.PC + 6)
		case trace.Return:
			if addr, ok := ras.Pop(); !ok || addr != r.Target {
				c.rasMispredicts++
			}
		default:
		}
		if r.Type == trace.IndirectJump || r.Type == trace.IndirectCall {
			if !ibtb.Update(r.PC, r.Target) {
				c.ibtbMispredicts++
			}
		}
	}
	return c
}

// blockLines returns the first and last 64-byte line core.Run fetches for
// the block that follows record r (at most eight lines).
func blockLines(r *trace.Record) (first, last uint64) {
	start := r.PC + 4
	if r.Taken {
		start = r.Target
	}
	n := uint64(r.BlockLen) + 1
	first, last = start>>6, (start+4*n)>>6
	if last-first > 7 {
		last = first + 7
	}
	return first, last
}

// icacheCounts is the instruction-fetch traffic: all calls, and the
// post-warm-up fetches and L1I misses.
type icacheCounts struct{ calls, fetches, l1Misses uint64 }

// replayICache fetches every block's lines through a fresh hierarchy. Only
// the L1I is private to instruction fetch, so only its counts match the
// op's; L2 and the LLC see no data traffic here.
func replayICache(recs []trace.Record, warm int) icacheCounts {
	h := cache.NewHierarchy()
	var c icacheCounts
	for i := range recs {
		if i == warm {
			h.InstrFetches, h.InstrL1Misses = 0, 0
		}
		first, last := blockLines(&recs[i])
		for blk := first; blk <= last; blk++ {
			h.FetchInstr(blk << 6)
			c.calls++
		}
	}
	c.fetches, c.l1Misses = h.InstrFetches, h.InstrL1Misses
	return c
}

// replayLoads issues the synthetic backend load stream through a fresh
// hierarchy: one load per six instructions, drawn from the same three
// address regions and seed rule core.Run uses. It returns the call count.
func replayLoads(recs []trace.Record, cfg core.Config) uint64 {
	h := cache.NewHierarchy()
	rng := xrand.New(0xDA7A ^ uint64(len(recs)))
	var calls uint64
	for i := range recs {
		loads := (int(recs[i].BlockLen) + 1) / 6
		for j := 0; j < loads; j++ {
			roll := rng.Float64()
			var addr uint64
			switch {
			case roll < 0.85:
				addr = rng.Uint64n(16 << 10)
			case roll < 0.99:
				addr = (1 << 20) + rng.Uint64n(128<<10)
			default:
				addr = (8 << 20) + rng.Uint64n(cfg.DataFootprint)
			}
			h.LoadData(addr)
			calls++
		}
	}
	return calls
}

// fill is one prefetcher-issued BTB insert and the access index from which
// core.Run would apply it.
type fill struct {
	avail  int
	pc     uint64
	target uint64
	typ    trace.BranchType
}

// replayPrefetcher drives p with the demand-access and line-fill events
// core.Run gives it, in core.Run's order, and returns the event count and
// the fills it issued.
func replayPrefetcher(p core.Prefetcher, recs []trace.Record, delay int) (calls uint64, fills []fill) {
	idx := 0
	insert := func(pc, target uint64, typ trace.BranchType) {
		fills = append(fills, fill{avail: idx + delay, pc: pc, target: target, typ: typ})
	}
	for i := range recs {
		r := &recs[i]
		if r.Taken {
			p.OnBTBAccess(r.PC, r.Target, true, insert)
			calls++
			idx++
		}
		first, last := blockLines(r)
		for blk := first; blk <= last; blk++ {
			p.OnLineFill(blk, insert)
			calls++
		}
	}
	return calls, fills
}

// fillCounts is the post-warm-up result of a demand-plus-fill BTB replay:
// the BTB stats, and the fills offered to it and accepted.
type fillCounts struct {
	stats            btb.Stats
	offered, applied uint64
}

// replayFills drives the demand accesses and the recorded fills through
// the BTB (or Shotgun's two partitions) the way core.Run's prefetching
// loop does: fills that have matured are applied before each demand
// access.
func replayFills(acc []trace.Access, fills []fill, warmAcc int, cfg core.Config, meta *core.TraceMeta) fillCounts {
	var main, cond *btb.BTB
	if cfg.ShotgunPartition {
		main = btb.New(cfg.BTBEntries*45/100, cfg.BTBWays, cfg.NewPolicy())
		cond = btb.New(cfg.BTBEntries*40/100, cfg.BTBWays, cfg.NewPolicy())
	} else {
		main = newBTB(cfg)
	}
	pick := func(t trace.BranchType) *btb.BTB {
		if cond != nil && t.IsConditional() {
			return cond
		}
		return main
	}
	var c fillCounts
	var req, freq btb.Request
	freq.Prefetch = true
	next := 0
	for i := range acc {
		if i == warmAcc {
			main.ResetStats()
			if cond != nil {
				cond.ResetStats()
			}
			c.offered, c.applied = 0, 0
		}
		for next < len(fills) && fills[next].avail <= i {
			f := &fills[next]
			freq.PC, freq.Target, freq.Type, freq.Index = f.pc, f.target, f.typ, i
			freq.NextUse = meta.NextUseAfter(f.pc, i)
			if cfg.Hints != nil {
				freq.Temperature = cfg.Hints.Lookup(f.pc)
			}
			c.offered++
			if pick(f.typ).PrefetchFill(&freq) {
				c.applied++
			}
			next++
		}
		a := &acc[i]
		req.PC, req.Target, req.Type, req.NextUse, req.Index = a.PC, a.Target, a.Type, a.NextUse, i
		if cfg.Hints != nil {
			req.Temperature = cfg.Hints.Lookup(a.PC)
		}
		pick(a.Type).Access(&req)
	}
	c.stats = main.Stats()
	if cond != nil {
		s := cond.Stats()
		c.stats.Accesses += s.Accesses
		c.stats.Hits += s.Hits
		c.stats.Misses += s.Misses
		c.stats.Bypasses += s.Bypasses
		c.stats.Insertions += s.Insertions
		c.stats.Evictions += s.Evictions
		c.stats.TargetUpdates += s.TargetUpdates
		c.stats.PrefetchFills += s.PrefetchFills
	}
	return c
}

// replayShadow runs the same-geometry Belady shadow the attribution and
// hint-quality layers keep; replayFAShadow the equal-capacity fully
// associative one attribution adds. Both return the call count.
func replayShadow(acc []trace.Access, sets, ways int) uint64 {
	s := belady.NewShadow(sets, ways)
	for i := range acc {
		s.Access(acc[i].PC, acc[i].NextUse)
	}
	return uint64(len(acc))
}

func replayFAShadow(acc []trace.Access, capacity int) uint64 {
	s := belady.NewFAShadow(capacity)
	for i := range acc {
		s.Access(acc[i].PC, acc[i].NextUse)
	}
	return uint64(len(acc))
}
