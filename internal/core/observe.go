package core

import (
	"thermometer/internal/btb"
	"thermometer/internal/detmap"
	"thermometer/internal/policy"
	"thermometer/internal/telemetry"
)

// observerState is the glue between the simulator's hot loop and the
// telemetry subsystem, and the first entry of the run's consumer list. It
// exists only when cfg.Observer is non-nil; the disabled path in Run is a
// single nil check per block.
//
// Metric handles are resolved by name here, once. Per-event updates go to
// run-local plain counters and LocalHistograms, which flush into the
// registry once, at the end of the run: every reader of a run's registry
// reads it after Run returns.
type observerState struct {
	obs    *telemetry.Observer
	events *telemetry.Tracer // obs.Events
	res    *Result

	bank     *btbBank
	twoLevel *btb.TwoLevel

	// Registry handles (nil when obs.Metrics is nil).
	cInsert, cEvict, cBypass, cPrefetch                    *telemetry.Counter
	cRedirectBTB, cRedirectDir, cRedirectTgt               *telemetry.Counter
	hEvictionAge, hHitInterval, hFTQLead, hRedirectPenalty *telemetry.Histogram

	// Staged updates, flushed into the handles above.
	inserts, evicts, bypasses, prefetches           uint64
	redirectBTB, redirectDir, redirectTgt           uint64
	evictionAge, hitInterval, ftqLead, redirectCost telemetry.LocalHistogram

	// stamps holds per-branch insert and last-hit cycles for the
	// eviction-age and reuse-interval histograms. A branch's stamps go when
	// it is evicted, so they stay O(BTB capacity) regardless of trace
	// length.
	stamps stamps

	// fan is the run's consumer list; each epoch this sampler closes goes
	// out over it.
	fan *consumers

	// final is the end-of-run snapshot, taken once by flushEpoch.
	final telemetry.Cumulative
}

func newObserverState(obs *telemetry.Observer, res *Result, bank *btbBank, twoLevel *btb.TwoLevel) *observerState {
	o := &observerState{
		obs: obs, events: obs.Events, res: res, bank: bank, twoLevel: twoLevel,
	}
	if bank.cond == nil && twoLevel == nil {
		o.stamps.ways = bank.main.Ways()
		o.stamps.bySlot = make([]stamp, bank.main.Capacity())
	} else {
		o.stamps.byPC = make(map[uint64]stamp)
	}
	if m := obs.Metrics; m != nil {
		o.cInsert = m.Counter("btb_inserts")
		o.cEvict = m.Counter("btb_evictions")
		o.cBypass = m.Counter("btb_bypasses")
		o.cPrefetch = m.Counter("btb_prefetch_fills")
		o.cRedirectBTB = m.Counter("redirects_btb_miss")
		o.cRedirectDir = m.Counter("redirects_dir_mispredict")
		o.cRedirectTgt = m.Counter("redirects_target_mispredict")
		o.hEvictionAge = m.Histogram("btb_eviction_age_cycles")
		o.hHitInterval = m.Histogram("btb_hit_interval_cycles")
		o.hFTQLead = m.Histogram("ftq_lead_cycles")
		o.hRedirectPenalty = m.Histogram("redirect_penalty_cycles")
	}
	return o
}

// OnProbe receives structural BTB events from the run's fan-out. The cycle
// it carries is the run's live count, which probe reads directly.
func (o *observerState) OnProbe(kind btb.ProbeKind, _ uint64, set, way int, req *btb.Request, victim *btb.Entry, _ bool) {
	o.probe(kind, set, way, req, victim)
}

// probe handles one structural BTB event, stamped with the live cycle
// count. It is a btb.ProbeFunc, so a lone observer is the BTBs' probe
// itself.
func (o *observerState) probe(kind btb.ProbeKind, set, way int, req *btb.Request, victim *btb.Entry) {
	now := o.res.Cycles
	switch kind {
	case btb.ProbeHit:
		if o.hHitInterval != nil {
			st := o.stamps.get(set, way, req.PC)
			if st.hit != 0 && now+1 >= st.hit {
				o.hitInterval.Observe(now + 1 - st.hit)
			}
			st.hit = now + 1
			o.stamps.put(set, way, req.PC, st)
		}
		return // hits are histogram-only: too frequent for the event trace
	case btb.ProbeInsert:
		o.inserts++
		o.stamps.setInsert(set, way, req.PC, now)
		o.event(telemetry.EvInsert, now, req.PC, req.Target, req.Temperature)
	case btb.ProbeEvict:
		o.evicts++
		// The victim is gone: drop its stamps, so only resident branches
		// have any. (A re-inserted branch restarts its hit-interval
		// series, which is the residency-local measurement the histogram
		// wants anyway.)
		if st := o.stamps.drop(set, way, victim.PC); st.ins != 0 && o.hEvictionAge != nil && now+1 >= st.ins {
			o.evictionAge.Observe(now + 1 - st.ins)
		}
		o.event(telemetry.EvEvict, now, req.PC, victim.PC, victim.Temperature)
	case btb.ProbeBypass:
		o.bypasses++
		o.event(telemetry.EvBypass, now, req.PC, req.Target, req.Temperature)
	case btb.ProbePrefetchFill:
		o.prefetches++
		o.stamps.setInsert(set, way, req.PC, now)
		o.event(telemetry.EvPrefetchFill, now, req.PC, req.Target, req.Temperature)
	}
}

func (o *observerState) event(kind telemetry.EventKind, cycle, pc, arg uint64, temp uint8) {
	if o.events == nil {
		return
	}
	o.events.Record(telemetry.Event{Cycle: cycle, PC: pc, Arg: arg, Kind: kind, Temp: temp})
}

// onRedirect records one frontend resteer with its attributed cause.
func (o *observerState) onRedirect(btbMiss, dirMiss, targetMiss bool, pc uint64, penalty int) {
	var cause uint64
	switch {
	case btbMiss:
		cause = telemetry.RedirectBTBMiss
		o.redirectBTB++
	case dirMiss:
		cause = telemetry.RedirectDirMispredict
		o.redirectDir++
	default:
		cause = telemetry.RedirectTargetMispredict
		o.redirectTgt++
	}
	o.redirectCost.Observe(uint64(penalty))
	o.event(telemetry.EvRedirect, o.res.Cycles, pc, cause, 0)
}

// afterBlock runs once per simulated block: it samples the FTQ lead and
// closes an epoch when the instruction count crosses a boundary. The
// no-boundary case is one staged histogram add and one compare.
func (o *observerState) afterBlock(leadCycles uint64) {
	o.ftqLead.Observe(leadCycles)
	if s := o.obs.Epochs; s != nil && s.Due(o.res.Instructions) {
		cum := o.cumulative()
		s.Tick(&cum)
		o.fan.epoch()
	}
}

// flushEpoch publishes the run's staged updates to the registry (the run's
// one flush), takes the end-of-run snapshot, closes the final partial epoch
// and reports whether one closed.
func (o *observerState) flushEpoch() bool {
	if o.obs.Metrics != nil {
		o.cInsert.Add(o.inserts)
		o.cEvict.Add(o.evicts)
		o.cBypass.Add(o.bypasses)
		o.cPrefetch.Add(o.prefetches)
		o.cRedirectBTB.Add(o.redirectBTB)
		o.cRedirectDir.Add(o.redirectDir)
		o.cRedirectTgt.Add(o.redirectTgt)
		o.evictionAge.FlushTo(o.hEvictionAge)
		o.hitInterval.FlushTo(o.hHitInterval)
		o.ftqLead.FlushTo(o.hFTQLead)
		o.redirectCost.FlushTo(o.hRedirectPenalty)
	}
	o.final = o.cumulative()
	if s := o.obs.Epochs; s != nil {
		return s.Finish(&o.final)
	}
	return false
}

// cumulative assembles the sampler's snapshot, including the O(capacity)
// temperature census — only ever called at epoch boundaries and at finish.
func (o *observerState) cumulative() telemetry.Cumulative {
	st := o.bank.stats()
	cum := telemetry.Cumulative{
		Instructions: o.res.Instructions,
		Cycles:       o.res.Cycles,

		BTBAccesses:      st.Accesses,
		BTBHits:          st.Hits,
		BTBMisses:        st.Misses,
		BTBBypasses:      st.Bypasses,
		BTBEvictions:     st.Evictions,
		BTBPrefetchFills: st.PrefetchFills,

		RedirectStall: o.res.RedirectStall,
		ICacheStall:   o.res.ICacheStall,
		DataStall:     o.res.DataStall,
	}
	census := func(b *btb.BTB) {
		valid, byTemp := b.TemperatureCensus()
		cum.BTBValid += valid
		cum.BTBCapacity += uint64(b.Capacity())
		for t := range byTemp {
			cum.TempOccupancy[t] += byTemp[t]
		}
	}
	if o.twoLevel != nil {
		l1, l2 := o.twoLevel.Stats()
		cum.BTBAccesses = l1.Accesses
		cum.BTBHits = l1.Hits + o.twoLevel.Promotions
		cum.BTBMisses = o.twoLevel.TrueMisses()
		cum.BTBBypasses = l1.Bypasses
		cum.BTBEvictions = l1.Evictions + l2.Evictions
		census(o.twoLevel.L1)
		census(o.twoLevel.L2)
	} else {
		census(o.bank.main)
		if o.bank.cond != nil {
			census(o.bank.cond)
		}
	}
	return cum
}

// OnWarmupReset realigns telemetry with the statistics restart at the end
// of warmup: the epoch series and branch stamps restart so the recorded
// time series covers exactly the measured region.
func (o *observerState) OnWarmupReset() {
	if s := o.obs.Epochs; s != nil {
		s.Restart()
	}
	o.stamps.reset()
}

// OnEpoch is a no-op: the observer's own sampler closed the epoch.
func (o *observerState) OnEpoch(uint64, *btb.BTB) {}

// OnFinish publishes end-of-run gauges and per-policy decision counters
// from flushEpoch's snapshot (which also flushed the final partial epoch).
func (o *observerState) OnFinish(_ uint64, m *telemetry.Registry) {
	if m == nil {
		return
	}
	m.Gauge("btb_valid_entries").Set(o.final.BTBValid)
	m.Gauge("btb_capacity").Set(o.final.BTBCapacity)
	m.SetCounter("instructions", o.res.Instructions)
	m.SetCounter("cycles", o.res.Cycles)
	if ev := o.obs.Events; ev != nil {
		// Surface ring truncation: a nonzero value means the trace outgrew
		// -eventcap and the oldest events were silently overwritten.
		m.SetCounter("dropped_events", ev.Dropped())
	}
	if ins, ok := o.res.Policy.(policy.Instrumented); ok {
		tc := ins.TelemetryCounters()
		for _, name := range detmap.SortedKeys(tc) {
			m.SetCounter("policy_"+name, tc[name])
		}
	}
}

// stamps maps each resident branch to its insert and last-hit cycles. A
// run with one BTB keys them by the branch's slot: a branch is inserted
// only on a miss, so it occupies at most one slot, and every slot it
// leaves reports ProbeEvict. A run with several BTBs keys them by PC, since
// a two-level BTB can hold one PC in both levels and both levels' events
// then share the PC's stamps.
type stamps struct {
	ways   int
	bySlot []stamp          // one BTB: set*ways+way
	byPC   map[uint64]stamp // several BTBs
}

// stamp holds one branch's insert and last-hit cycles plus one, so zero
// means "none".
type stamp struct{ ins, hit uint64 }

// get returns the stamps of pc, resident at (set, way).
func (s *stamps) get(set, way int, pc uint64) stamp {
	if s.bySlot != nil {
		return s.bySlot[set*s.ways+way]
	}
	return s.byPC[pc]
}

func (s *stamps) put(set, way int, pc uint64, st stamp) {
	if s.bySlot != nil {
		s.bySlot[set*s.ways+way] = st
		return
	}
	s.byPC[pc] = st
}

func (s *stamps) setInsert(set, way int, pc, now uint64) {
	st := s.get(set, way, pc)
	st.ins = now + 1
	s.put(set, way, pc, st)
}

// drop forgets the stamps of pc, evicted from (set, way), and returns them.
func (s *stamps) drop(set, way int, pc uint64) stamp {
	if s.bySlot != nil {
		st := &s.bySlot[set*s.ways+way]
		old := *st
		*st = stamp{}
		return old
	}
	old := s.byPC[pc]
	delete(s.byPC, pc)
	return old
}

func (s *stamps) reset() {
	clear(s.bySlot)
	clear(s.byPC)
}
