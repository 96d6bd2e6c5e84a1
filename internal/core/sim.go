package core

import (
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

// Result reports one timing simulation.
type Result struct {
	Name         string
	Instructions uint64
	Cycles       uint64

	BTB              btb.Stats
	PrefetchFills    uint64
	BTBMissRedirects uint64

	DirLookups      uint64
	DirMispredicts  uint64
	RASMispredicts  uint64
	IBTBMispredicts uint64

	// Stall cycle attribution.
	RedirectStall uint64
	ICacheStall   uint64
	DataStall     uint64
	// ICacheStall broken down by the worst level a block's lines reached.
	ICacheStallByLevel [4]uint64

	L2iMPKI float64
	// Post-warmup instruction miss counts per level.
	InstrL1Misses, InstrL2Misses, InstrLLCMisses uint64

	// Policy is the replacement policy instance used (for coverage stats).
	Policy btb.Policy
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// BTBMPKI returns demand BTB misses per kilo-instruction.
func (r *Result) BTBMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.BTB.Misses) / float64(r.Instructions) * 1000
}

// Speedup returns the IPC improvement of r over base as a fraction
// (0.087 = 8.7% faster).
func Speedup(base, r *Result) float64 {
	if base.Cycles == 0 || r.Cycles == 0 {
		return 0
	}
	return r.IPC()/base.IPC() - 1
}

// btbBank routes accesses to one or two BTBs (Shotgun's static partition).
type btbBank struct {
	main *btb.BTB
	cond *btb.BTB // nil unless partitioned
}

func (bk *btbBank) pick(t trace.BranchType) *btb.BTB {
	if bk.cond != nil && t.IsConditional() {
		return bk.cond
	}
	return bk.main
}

func (bk *btbBank) stats() btb.Stats {
	s := bk.main.Stats()
	if bk.cond != nil {
		c := bk.cond.Stats()
		s.Accesses += c.Accesses
		s.Hits += c.Hits
		s.Misses += c.Misses
		s.Bypasses += c.Bypasses
		s.Insertions += c.Insertions
		s.Evictions += c.Evictions
		s.TargetUpdates += c.TargetUpdates
		s.PrefetchFills += c.PrefetchFills
	}
	return s
}

// pendingFill is one prefetcher-inserted entry waiting out the fill delay.
type pendingFill struct {
	avail  int
	pc     uint64
	target uint64
	typ    trace.BranchType
}

// fillRing is a reusable FIFO of pending prefetch fills. Because every push
// carries avail = curIdx + PrefetchDelay and curIdx never decreases, avail
// values are monotonically nondecreasing in push order — so the fills ready
// at any moment are exactly a prefix of the queue, and a ring-buffer
// prefix-drain is equivalent to the order-preserving in-place filter it
// replaces. The ring grows when full but is reused across the whole run
// (and across runner jobs via the sim struct), instead of the append-only
// slice that previously grew without bound. Its length is always a power
// of two (64·4^k), so positions wrap with a mask.
type fillRing struct {
	buf       []pendingFill
	head, n   int
	lastAvail int
}

func (r *fillRing) push(pf pendingFill) {
	if pf.avail < r.lastAvail {
		// The prefix-drain below is only valid while avail is monotone;
		// a regression means the fill pipeline model changed shape.
		panic("core: prefetch fill availability regressed; ring drain order broken")
	}
	r.lastAvail = pf.avail
	if r.n == len(r.buf) {
		grown := make([]pendingFill, max(4*len(r.buf), 64))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = pf
	r.n++
}

func (r *fillRing) peek() *pendingFill { return &r.buf[r.head] }

func (r *fillRing) pop() pendingFill {
	pf := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return pf
}

// sim holds the policy-side state of one timing simulation: the BTB, the
// prefetcher hooks, the probe consumers and the FDIP lead/clock arithmetic.
// The BTB-independent outcomes come precomputed in fe (see frontend.go).
// Loop-invariant configuration (hint table, prefetcher, penalties,
// perfect-structure flags) is hoisted into fields once at setup.
type sim struct {
	res *Result

	accesses []trace.Access
	meta     *TraceMeta
	hints    *profile.HintTable
	temps    []uint8 // hints' column: demand access i's temperature (nil without hints)
	fe       *frontStream
	spillIdx int // next unread fe.spill entry

	bank     *btbBank
	twoLevel *btb.TwoLevel
	obs      *observerState
	fan      *consumers // nil when no observer or recorder is attached

	prefetcher Prefetcher
	insertFn   InsertFunc // bound once; handed to the prefetcher per event
	fills      fillRing

	// Reusable request buffers: btb.Access never retains the request, so
	// the demand and fill paths each recycle one instead of zeroing a
	// fresh struct per record. demandReq.Prefetch stays false and its
	// Temperature stays zero when no hint table is attached; fillReq is
	// the mirror image for matured prefetch fills.
	demandReq btb.Request
	fillReq   btb.Request

	width                    uint64
	minLeadCapH, maxLeadCapH uint64
	ftqInstrCap              uint64
	leadH                    uint64
	curIdx                   int

	perfectBTB    bool
	perfectICache bool
	execPenalty   int
	decodePenalty int
	prefetchDelay int
	// lineLat is each cache.Level's instruction-fetch latency.
	lineLat [4]uint64
}

// Run simulates the trace under the configuration and returns the result.
func Run(tr *trace.Trace, cfg Config) *Result {
	if cfg.FetchWidth <= 0 || cfg.FTQInstrCap <= 0 {
		panic("core: invalid config")
	}
	accesses := tr.AccessStream()
	var meta *TraceMeta
	if cfg.Prefetcher != nil {
		if cfg.TwoLevelBTB != nil {
			// Fills go to one BTB through its policy; a two-level
			// organization has no prefetch-fill path to either level.
			panic("core: a Prefetcher requires a one-level BTB (no TwoLevelBTB)")
		}
		meta = MetaFor(tr)
	}

	res := &Result{Name: tr.Name}

	// Structures.
	newPolicy := cfg.NewPolicy
	if newPolicy == nil {
		newPolicy = func() btb.Policy { return policy.NewLRU() }
	}
	bank := &btbBank{}
	res.Policy = newPolicy()
	if cfg.ShotgunPartition {
		// Shotgun statically partitions the BTB by branch type and spends
		// part of the unconditional partition on spatial-footprint
		// prefetch metadata (§2.2: it "wastes critical BTB capacity to
		// store unused prefetch metadata"). Model: 45% U-BTB, 40% C-BTB,
		// 15% of entries lost to metadata.
		u := cfg.BTBEntries * 45 / 100
		c := cfg.BTBEntries * 40 / 100
		bank.main = btb.New(u, cfg.BTBWays, res.Policy)
		bank.cond = btb.New(c, cfg.BTBWays, newPolicy())
	} else if cfg.BTBSets > 0 {
		bank.main = btb.NewWithSets(cfg.BTBSets, cfg.BTBWays, res.Policy)
	} else {
		bank.main = btb.New(cfg.BTBEntries, cfg.BTBWays, res.Policy)
	}
	var twoLevel *btb.TwoLevel
	if tl := cfg.TwoLevelBTB; tl != nil {
		twoLevel = btb.NewTwoLevel(tl.L1Entries, tl.L1Ways, res.Policy,
			tl.L2Entries, tl.L2Ways, newPolicy(), tl.BubbleCycles)
	}

	s := &sim{
		res:      res,
		accesses: accesses,
		meta:     meta,
		hints:    cfg.Hints,
		temps:    hintColumn(tr, cfg.Hints),
		fe:       frontendFor(tr, &cfg),

		bank:     bank,
		twoLevel: twoLevel,

		prefetcher: cfg.Prefetcher,

		width: uint64(cfg.FetchWidth),
		// FDIP lead: cycles by which FDIP's prefetch of the next block
		// precedes fetch's demand for it. Squashes reset it. Tracked in
		// half-cycles: the BPU produces up to two block predictions per
		// cycle (as in ChampSim's FDIP model), so while fetch consumes
		// roughly one block per cycle the frontend gains ~half a cycle of
		// lead per block, plus everything fetch spends stalled.
		//
		// The lead is capped by the FTQ: a full FTQ holds FTQInstrCap
		// instructions, which cover FTQInstrCap×CPI cycles of fetch time —
		// the slower the machine runs, the further (in cycles) a fixed FTQ
		// lets FDIP reach ahead. The cap therefore tracks running CPI.
		minLeadCapH: 2 * uint64(cfg.FTQInstrCap/cfg.FetchWidth),
		maxLeadCapH: 8 * uint64(cfg.FTQInstrCap),
		ftqInstrCap: uint64(cfg.FTQInstrCap),

		perfectBTB:    cfg.PerfectBTB,
		perfectICache: cfg.PerfectICache,
		execPenalty:   cfg.ExecRedirectPenalty,
		decodePenalty: cfg.DecodeRedirectPenalty,
		prefetchDelay: cfg.PrefetchDelay,
		lineLat: [4]uint64{
			cache.L2:     uint64(cfg.Latencies.L2Hit),
			cache.LLC:    uint64(cfg.Latencies.LLCHit),
			cache.Memory: uint64(cfg.Latencies.Memory),
		},
	}
	if s.prefetcher != nil {
		// Bind the insert callback once: fills are delayed by PrefetchDelay
		// demand accesses to model the fill pipeline relative to the
		// run-ahead BPU.
		s.insertFn = func(pc, target uint64, typ trace.BranchType) {
			s.fills.push(pendingFill{avail: s.curIdx + s.prefetchDelay, pc: pc, target: target, typ: typ})
		}
	}

	// Telemetry attachment: obs and fan are nil for the common
	// uninstrumented run.
	if cfg.Observer != nil {
		s.obs = newObserverState(cfg.Observer, res, bank, twoLevel)
	}
	s.fan = attachConsumers(&cfg, res, accesses, bank, twoLevel, s.obs)

	recs, fe := tr.Records, s.fe.recs
	warmupEnd := int(cfg.WarmupFrac * float64(len(recs)))
	measuredFrom := 0
	if warmupEnd >= 0 && warmupEnd < len(recs) {
		// Equivalent to resetting when the record index reaches warmupEnd
		// (including warmupEnd == 0, where the reset fires before the
		// first record): simulate the warmup prefix, reset statistics with
		// all structures still trained, then simulate the rest.
		s.runRecords(recs[:warmupEnd], fe[:warmupEnd])
		s.warmupReset()
		s.runRecords(recs[warmupEnd:], fe[warmupEnd:])
		measuredFrom = warmupEnd
	} else {
		s.runRecords(recs, fe)
	}
	tallyFor(tr, &cfg, s.fe, measuredFrom).addTo(res)

	res.BTB = bank.stats()
	if twoLevel != nil {
		l1, _ := twoLevel.Stats()
		res.BTB = l1
		res.BTB.Hits = l1.Hits + twoLevel.Promotions
		res.BTB.Misses = twoLevel.TrueMisses()
	}
	if res.Instructions != 0 {
		res.L2iMPKI = float64(res.InstrL2Misses) / float64(res.Instructions) * 1000
	}
	if s.fan != nil {
		s.fan.finish()
	}
	return res
}

// warmupReset ends warmup: all structures stay trained, statistics and the
// clock restart. The frontend's counters are tallied from the stream after
// the run, over the measured records only.
func (s *sim) warmupReset() {
	res := s.res
	saved := *res
	*res = Result{Name: saved.Name, Policy: saved.Policy}
	s.bank.main.ResetStats()
	if s.bank.cond != nil {
		s.bank.cond.ResetStats()
	}
	if s.twoLevel != nil {
		s.twoLevel.L1.ResetStats()
		s.twoLevel.L2.ResetStats()
		s.twoLevel.Promotions, s.twoLevel.Demotions, s.twoLevel.L2Bubbles = 0, 0, 0
	}
	if s.fan != nil {
		s.fan.warmupReset()
	}
}

// btbAccess performs the demand BTB access for a taken branch through
// the reusable demand request (btb.Access never retains it). Every field
// that varies per access is written here; Prefetch is false for the
// request's whole lifetime and Temperature is only ever nonzero when a
// hint table is attached (in which case it is overwritten every call, from
// the hint column).
func (s *sim) btbAccess(r *trace.Record) (hit bool, bubble uint64) {
	req := &s.demandReq
	req.PC, req.Target, req.Type = r.PC, r.Target, r.Type
	req.NextUse, req.Index = s.accesses[s.curIdx].NextUse, s.curIdx
	if s.temps != nil {
		req.Temperature = s.temps[s.curIdx]
	}
	if s.twoLevel != nil {
		tr2 := s.twoLevel.Access(req)
		return tr2.Hit, uint64(tr2.Bubble)
	}
	ar := s.bank.pick(r.Type).Access(req)
	return ar.Hit, 0
}

// applyFill installs one matured prefetch fill through the BTB's policy.
// PrefetchFill refuses a resident branch before it reads the request, so
// the residency check comes first and only fills that can install are
// priced (next use, temperature). Only a prefetcher queues fills, and meta
// is non-nil whenever one is configured.
func (s *sim) applyFill(pf pendingFill) {
	b := s.bank.pick(pf.typ)
	if _, resident := b.Lookup(pf.pc); resident {
		return
	}
	req := &s.fillReq
	req.PC, req.Target, req.Type = pf.pc, pf.target, pf.typ
	req.Prefetch, req.Index = true, s.curIdx
	req.NextUse = s.meta.NextUseAfter(pf.pc, s.curIdx)
	if s.hints != nil {
		req.Temperature = s.hints.Lookup(pf.pc)
	}
	if b.PrefetchFill(req) {
		s.res.PrefetchFills++
	}
}

// drainFills applies every pending fill whose delay has elapsed. Monotone
// avail (asserted on push) makes the ready set a queue prefix.
func (s *sim) drainFills() {
	for s.fills.n > 0 && s.fills.peek().avail <= s.curIdx {
		s.applyFill(s.fills.pop())
	}
}

// redirectPenalty combines the redirect sources into the block's refill
// penalty.
func (s *sim) redirectPenalty(r *trace.Record, dirMiss, btbMiss, targetMiss bool) int {
	penalty := 0
	if dirMiss {
		penalty = s.execPenalty
	}
	if btbMiss {
		s.res.BTBMissRedirects++
		// Unconditional direct branches and calls are exposed at
		// decode. A conditional taken branch with no BTB entry sends
		// the frontend down the (plausible) fall-through path, so the
		// miss is only discovered when the branch executes; indirect
		// targets likewise resolve at execute.
		p := s.execPenalty
		if r.Type == trace.UncondDirect || r.Type == trace.Call || r.Type == trace.Return {
			p = s.decodePenalty
		}
		if p > penalty {
			penalty = p
		}
	}
	if targetMiss && s.execPenalty > penalty {
		penalty = s.execPenalty
	}
	return penalty
}

// applyPenalty charges a redirect: stall accounting plus the FTQ squash.
func (s *sim) applyPenalty(penalty int) {
	s.res.RedirectStall += uint64(penalty)
	// FTQ squash: FDIP loses its accumulated run-ahead. The BPU
	// restarts on the corrected path at resolution, so the
	// pipeline-refill bubble itself becomes the new head start —
	// the target block's instruction fetch overlaps the redirect
	// penalty rather than serializing behind it.
	s.leadH = 2 * uint64(penalty)
}

// icacheStall returns the block's fetch stall not hidden by FDIP lead: the
// latency of the worst level its lines reached, less the lead.
func (s *sim) icacheStall(f *frontRec) uint64 {
	lvl := f.level()
	lead := s.leadH / 2
	if s.lineLat[lvl] <= lead {
		return 0
	}
	stall := s.lineLat[lvl] - lead
	s.res.ICacheStall += stall
	s.res.ICacheStallByLevel[lvl] += stall
	return stall
}

// lineFills hands the block's instruction lines to the BTB prefetcher, as
// fetch brings them in.
func (s *sim) lineFills(r *trace.Record, n uint64) {
	first, last := blockLines(r, n)
	for blk := first; blk <= last; blk++ {
		s.prefetcher.OnLineFill(blk, s.insertFn)
	}
}

// dataStall returns the block's backend data-stall cycles.
func (s *sim) dataStall(f *frontRec) uint64 {
	d := uint64(f.dataStall)
	if d == frontSpill {
		d = s.fe.spill[s.spillIdx]
		s.spillIdx++
	}
	s.res.DataStall += d
	return d
}

// advanceClock issues the block and rolls the FDIP lead forward.
func (s *sim) advanceClock(n uint64, penalty int, stall, dataStall, btbBubble uint64) {
	issue := (n + s.width - 1) / s.width
	s.res.Cycles += issue + uint64(penalty) + stall + dataStall + btbBubble
	s.res.RedirectStall += btbBubble

	// The decoupled BPU runs ahead while fetch issues and stalls; half
	// a cycle is consumed producing this block's prediction. (The
	// redirect penalty is already accounted as the post-squash head
	// start above.)
	s.leadH += 2*(issue+stall+dataStall) - 1
	// leadCapH is at least minLeadCapH, so when the lead is under that
	// floor no clamp can apply and the CPI division is skipped.
	if s.leadH > s.minLeadCapH {
		if cap := s.leadCapH(); s.leadH > cap {
			s.leadH = cap
		}
	}
}

// leadCapH bounds the FDIP lead by the FTQ's reach at the running CPI.
func (s *sim) leadCapH() uint64 {
	if s.res.Instructions == 0 {
		return s.minLeadCapH
	}
	c := 2 * s.ftqInstrCap * s.res.Cycles / s.res.Instructions
	if c < s.minLeadCapH {
		return s.minLeadCapH
	}
	if c > s.maxLeadCapH {
		return s.maxLeadCapH
	}
	return c
}

// runRecords simulates recs, one basic block each. The prefetcher hooks
// (fill draining, access feedback, line-fill taps) run only with a
// prefetcher attached and the telemetry hooks only with an observer.
func (s *sim) runRecords(recs []trace.Record, fe []frontRec) {
	fe = fe[:len(recs)]
	for i := range recs {
		r, f := &recs[i], &fe[i]
		n := uint64(r.BlockLen) + 1 // block + the branch itself
		s.res.Instructions += n

		btbMiss := false
		var btbBubble uint64
		if r.Taken {
			if !s.perfectBTB {
				if s.prefetcher != nil {
					s.drainFills()
				}
				hit, bubble := s.btbAccess(r)
				btbMiss = !hit
				btbBubble = bubble
				if s.prefetcher != nil {
					s.prefetcher.OnBTBAccess(r.PC, r.Target, hit, s.insertFn)
				}
			}
			s.curIdx++
		}

		dirMiss, targetMiss := f.flags&frontDirMiss != 0, f.flags&frontTargetMiss != 0
		penalty := s.redirectPenalty(r, dirMiss, btbMiss, targetMiss)
		if penalty > 0 {
			if s.obs != nil {
				s.obs.onRedirect(btbMiss, dirMiss, targetMiss, r.PC, penalty)
			}
			s.applyPenalty(penalty)
		}

		if s.prefetcher != nil && !s.perfectICache {
			s.lineFills(r, n)
		}
		stall := s.icacheStall(f)
		s.advanceClock(n, penalty, stall, s.dataStall(f), btbBubble)
		if s.obs != nil {
			s.obs.afterBlock(s.leadH / 2)
		}
	}
}
