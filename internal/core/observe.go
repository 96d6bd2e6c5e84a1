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
// All metric handles are resolved by name here, once, so per-event updates
// on the instrumented path are plain atomic adds.
type observerState struct {
	obs *telemetry.Observer
	res *Result

	bank     *btbBank
	twoLevel *btb.TwoLevel

	// Registry handles (nil when obs.Metrics is nil).
	cInsert, cEvict, cBypass, cPrefetch                    *telemetry.Counter
	cRedirectBTB, cRedirectDir, cRedirectTgt               *telemetry.Counter
	hEvictionAge, hHitInterval, hFTQLead, hRedirectPenalty *telemetry.Histogram

	// insertCycle / lastHitCycle track per-branch timestamps for the
	// eviction-age and reuse-interval histograms. Entries are evicted when
	// the tracked branch leaves the BTB, so both maps stay O(BTB capacity)
	// regardless of trace length. Only populated while the observer is
	// attached, so the nil-observer path allocates nothing.
	insertCycle  map[uint64]uint64
	lastHitCycle map[uint64]uint64

	// fan is the run's consumer list; each epoch this sampler closes goes
	// out over it.
	fan *consumers
}

func newObserverState(obs *telemetry.Observer, res *Result, bank *btbBank, twoLevel *btb.TwoLevel) *observerState {
	o := &observerState{
		obs: obs, res: res, bank: bank, twoLevel: twoLevel,
		insertCycle:  make(map[uint64]uint64),
		lastHitCycle: make(map[uint64]uint64),
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

// OnProbe receives structural BTB events, stamped with the live cycle
// count.
func (o *observerState) OnProbe(kind btb.ProbeKind, now uint64, _, _ int, req *btb.Request, victim *btb.Entry, _ bool) {
	switch kind {
	case btb.ProbeHit:
		if o.hHitInterval != nil {
			if last, ok := o.lastHitCycle[req.PC]; ok && now >= last {
				o.hHitInterval.Observe(now - last)
			}
			o.lastHitCycle[req.PC] = now
		}
		return // hits are histogram-only: too frequent for the event trace
	case btb.ProbeInsert:
		if o.cInsert != nil {
			o.cInsert.Inc()
		}
		o.insertCycle[req.PC] = now
		o.event(telemetry.EvInsert, now, req.PC, req.Target, req.Temperature)
	case btb.ProbeEvict:
		if o.cEvict != nil {
			o.cEvict.Inc()
		}
		if ins, ok := o.insertCycle[victim.PC]; ok {
			if o.hEvictionAge != nil && now >= ins {
				o.hEvictionAge.Observe(now - ins)
			}
			delete(o.insertCycle, victim.PC)
		}
		// The victim is gone: drop its hit stamp too, so the map tracks
		// only resident branches. (A re-inserted branch restarts its
		// hit-interval series, which is the residency-local measurement
		// the histogram wants anyway.)
		delete(o.lastHitCycle, victim.PC)
		o.event(telemetry.EvEvict, now, req.PC, victim.PC, victim.Temperature)
	case btb.ProbeBypass:
		if o.cBypass != nil {
			o.cBypass.Inc()
		}
		o.event(telemetry.EvBypass, now, req.PC, req.Target, req.Temperature)
	case btb.ProbePrefetchFill:
		if o.cPrefetch != nil {
			o.cPrefetch.Inc()
		}
		o.insertCycle[req.PC] = now
		o.event(telemetry.EvPrefetchFill, now, req.PC, req.Target, req.Temperature)
	}
}

func (o *observerState) event(kind telemetry.EventKind, cycle, pc, arg uint64, temp uint8) {
	if o.obs.Events == nil {
		return
	}
	o.obs.Events.Record(telemetry.Event{Cycle: cycle, PC: pc, Arg: arg, Kind: kind, Temp: temp})
}

// onRedirect records one frontend resteer with its attributed cause.
func (o *observerState) onRedirect(btbMiss, dirMiss, targetMiss bool, pc uint64, penalty int) {
	var cause uint64
	switch {
	case btbMiss:
		cause = telemetry.RedirectBTBMiss
		if o.cRedirectBTB != nil {
			o.cRedirectBTB.Inc()
		}
	case dirMiss:
		cause = telemetry.RedirectDirMispredict
		if o.cRedirectDir != nil {
			o.cRedirectDir.Inc()
		}
	default:
		cause = telemetry.RedirectTargetMispredict
		if o.cRedirectTgt != nil {
			o.cRedirectTgt.Inc()
		}
	}
	if o.hRedirectPenalty != nil {
		o.hRedirectPenalty.Observe(uint64(penalty))
	}
	o.event(telemetry.EvRedirect, o.res.Cycles, pc, cause, 0)
}

// afterBlock runs once per simulated block: it samples the FTQ lead and
// closes an epoch when the instruction count crosses a boundary. The
// no-boundary case is one histogram add plus one compare.
func (o *observerState) afterBlock(leadCycles uint64) {
	if o.hFTQLead != nil {
		o.hFTQLead.Observe(leadCycles)
	}
	if s := o.obs.Epochs; s != nil && s.Due(o.res.Instructions) {
		cum := o.cumulative()
		s.Tick(&cum)
		o.fan.epoch()
	}
}

// flushEpoch closes the final partial epoch and reports whether one closed.
func (o *observerState) flushEpoch() bool {
	s := o.obs.Epochs
	if s == nil {
		return false
	}
	cum := o.cumulative()
	return s.Finish(&cum)
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
// of warmup: the epoch series and cycle-stamp maps restart so the recorded
// time series covers exactly the measured region.
func (o *observerState) OnWarmupReset() {
	if s := o.obs.Epochs; s != nil {
		s.Restart()
	}
	clear(o.insertCycle)
	clear(o.lastHitCycle)
}

// OnEpoch is a no-op: the observer's own sampler closed the epoch.
func (o *observerState) OnEpoch(uint64, *btb.BTB) {}

// OnFinish publishes end-of-run gauges and per-policy decision counters
// (the final partial epoch was already flushed by flushEpoch).
func (o *observerState) OnFinish(_ uint64, m *telemetry.Registry) {
	if m == nil {
		return
	}
	cum := o.cumulative()
	m.Gauge("btb_valid_entries").Set(cum.BTBValid)
	m.Gauge("btb_capacity").Set(cum.BTBCapacity)
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
