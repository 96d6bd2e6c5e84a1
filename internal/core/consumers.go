package core

import (
	"thermometer/internal/attribution"
	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
)

// consumer is one tap on a run's BTB probe stream: the telemetry observer
// or an audit recorder (attribution.Recorder). Run builds the list once; a
// single installed probe fans every event out to it, and the run's
// lifecycle hooks go out over the same list.
type consumer interface {
	// OnProbe receives one structural BTB event at the given cycle. For
	// demand events (btb.ProbeKind.Demand) optHit is the shared
	// same-geometry Belady shadow's verdict on the same access; it is false
	// for other events and whenever no audit is attached.
	OnProbe(kind btb.ProbeKind, cycle uint64, set, way int, req *btb.Request, victim *btb.Entry, optHit bool)
	// OnWarmupReset runs when statistics restart at the end of warmup.
	OnWarmupReset()
	// OnEpoch runs each time the observer's sampler closes an epoch, instr
	// retired instructions into the measured region; b is the monolithic
	// BTB.
	OnEpoch(instr uint64, b *btb.BTB)
	// OnFinish runs once at the end of the run; m is the observer's
	// registry (nil without one).
	OnFinish(instr uint64, m *telemetry.Registry)
}

// consumers is the run's fan-out: the consumer list plus the one Belady
// shadow every audit recorder reads.
type consumers struct {
	list   []consumer
	obs    *observerState // nil without an observer; drives the epoch hooks
	shadow *belady.Shadow // nil unless an audit recorder is attached
	res    *Result
	main   *btb.BTB
}

// attachConsumers builds the consumer list — the observer, then each
// attached recorder, bound to the audits of the fields it is attached
// through (a recorder in both fields is one entry running both) — and
// installs its fan-out as the probe of every BTB in the run. It returns nil
// when nothing is attached. The audits model one monolithic BTB: the
// same-geometry shadow assumes one set-indexing function, which neither the
// Shotgun partition nor the two-level organization satisfies.
func attachConsumers(cfg *Config, res *Result, accesses []trace.Access, bank *btbBank, twoLevel *btb.TwoLevel, obs *observerState) *consumers {
	c := &consumers{obs: obs, res: res, main: bank.main}
	if obs != nil {
		obs.fan = c
		c.list = append(c.list, obs)
	}
	if cfg.Attribution != nil || cfg.HintQual != nil {
		if cfg.ShotgunPartition || twoLevel != nil {
			panic("core: attribution and hint-quality audits require a monolithic BTB (no ShotgunPartition/TwoLevelBTB)")
		}
		sets, ways, branches := bank.main.Sets(), bank.main.Ways(), trace.SiteCount(accesses)
		c.shadow = belady.NewShadow(sets, ways)
		if att := cfg.Attribution; att != nil {
			audits := attribution.AuditRegret
			if cfg.HintQual == att {
				audits |= attribution.AuditHints
			}
			att.Bind(res.Policy.Name(), sets, ways, branches, cfg.Hints, audits)
			c.list = append(c.list, att)
		}
		if hq := cfg.HintQual; hq != nil && hq != cfg.Attribution {
			hq.Bind(res.Policy.Name(), sets, ways, branches, cfg.Hints, attribution.AuditHints)
			c.list = append(c.list, hq)
		}
	}
	if len(c.list) == 0 {
		return nil
	}
	probe := c.probe
	if len(c.list) == 1 && obs != nil {
		probe = obs.probe // a lone observer needs no shadow and no fan-out loop
	}
	bank.main.SetProbe(probe)
	if bank.cond != nil {
		bank.cond.SetProbe(probe)
	}
	if twoLevel != nil {
		twoLevel.L1.SetProbe(probe)
		twoLevel.L2.SetProbe(probe)
	}
	return c
}

// probe is the BTBs' one probe: it steps the shared shadow on demand events,
// then hands the event and the shadow's verdict to every consumer.
func (c *consumers) probe(kind btb.ProbeKind, set, way int, req *btb.Request, victim *btb.Entry) {
	optHit := false
	if c.shadow != nil && kind.Demand() {
		out, _ := c.shadow.Access(req.PC, req.NextUse)
		optHit = out == belady.ShadowHit
	}
	for _, x := range c.list {
		x.OnProbe(kind, c.res.Cycles, set, way, req, victim, optHit)
	}
}

func (c *consumers) warmupReset() {
	for _, x := range c.list {
		x.OnWarmupReset()
	}
}

func (c *consumers) epoch() {
	for _, x := range c.list {
		x.OnEpoch(c.res.Instructions, c.main)
	}
}

// finish flushes the observer's final partial epoch — the epoch hooks fire
// only if that closed one — then runs every end-of-run hook.
func (c *consumers) finish() {
	var m *telemetry.Registry
	if o := c.obs; o != nil {
		m = o.obs.Metrics
		if o.flushEpoch() {
			c.epoch()
		}
	}
	for _, x := range c.list {
		x.OnFinish(c.res.Instructions, m)
	}
}
