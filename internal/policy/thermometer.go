package policy

import "thermometer/internal/btb"

// Thermometer implements Algorithm 1 of the paper: replacement guided by
// the profile-injected temperature hint (holistic behaviour) with LRU tie
// breaking (transient behaviour).
//
// Victim selection considers the incoming branch x0 together with the
// resident entries. It finds the coldest temperature t among all of them;
// if x0 alone has temperature t, the insertion is bypassed; otherwise the
// least recently used resident among the coldest-temperature candidates is
// evicted.
//
// Temperatures arrive on each Request (the simulator reads them from the
// profile.HintTable, standing in for the bits a compiler would encode into
// the branch instruction) and are stored per entry, matching the
// 2-bits-per-entry hardware cost computed in §3.4. The BTB keeps the
// architectural copy; the policy mirrors it per way (tempState) so a victim
// decision reads the set's temperatures without a snapshot of the set.
type Thermometer struct {
	// NoBypass disables Algorithm 1's bypass (lines 5-6) for the ablation
	// study of §2.5: a uniquely-coldest incoming branch is then inserted
	// over the coldest (LRU-tie-broken) resident.
	NoBypass bool

	// Decisions counts victim selections. A decision is Covered unless
	// every candidate (residents and the incoming branch) shares one
	// temperature, in which case Thermometer degenerates to LRU (Fig 15).
	Decisions uint64
	Covered   uint64
	Bypasses  uint64

	lru   lruState
	temps tempState
	cand  []int // scratch: candidate ways, reused across decisions
}

// tempState mirrors the temperature hint the BTB stores with each entry,
// one byte per way: OnInsert writes it and OnHit refreshes it, exactly as
// the BTB writes its copy on a fill and refreshes it on a demand hit.
type tempState struct {
	t    []uint8
	ways int
}

func (s *tempState) reset(sets, ways int) {
	s.t = make([]uint8, sets*ways)
	s.ways = ways
}

// store records req's temperature for (set, way).
func (s *tempState) store(set, way int, req *btb.Request) {
	s.t[set*s.ways+way] = req.Temperature
}

// of returns the temperatures of set's ways.
func (s *tempState) of(set int) []uint8 {
	base := set * s.ways
	return s.t[base : base+s.ways : base+s.ways]
}

// NewThermometer returns the Thermometer replacement policy.
func NewThermometer() *Thermometer { return &Thermometer{} }

// NewThermometerNoBypass returns the §2.5 ablation: temperature-guided
// eviction without the bypass path.
func NewThermometerNoBypass() *Thermometer {
	return &Thermometer{NoBypass: true}
}

// Name implements btb.Policy.
func (p *Thermometer) Name() string {
	if p.NoBypass {
		return "Thermometer-nobypass"
	}
	return "Thermometer"
}

// Reset implements btb.Policy: clears counters, recency and temperatures.
func (p *Thermometer) Reset(sets, ways int) {
	p.lru.reset(sets, ways)
	p.temps.reset(sets, ways)
	p.Decisions, p.Covered, p.Bypasses = 0, 0, 0
	p.cand = make([]int, 0, ways)
}

// OnHit implements btb.Policy: recency, and the hit's temperature (a
// re-profiled binary may have changed the branch's category).
func (p *Thermometer) OnHit(set, way int, req *btb.Request) {
	p.lru.touch(set, way)
	p.temps.store(set, way, req)
}

// OnInsert implements btb.Policy.
func (p *Thermometer) OnInsert(set, way int, req *btb.Request) {
	p.lru.touch(set, way)
	p.temps.store(set, way, req)
}

// Victim implements btb.Policy (Algorithm 1): the way to evict, or Bypass.
func (p *Thermometer) Victim(set int, req *btb.Request) int {
	p.Decisions++

	temps := p.temps.of(set)
	coldest := req.Temperature
	allSame := true
	for _, t := range temps {
		if t != req.Temperature {
			allSame = false
		}
		if t < coldest {
			coldest = t
		}
	}
	if !allSame {
		p.Covered++
	}

	p.cand = p.cand[:0]
	for w, t := range temps {
		if t == coldest {
			p.cand = append(p.cand, w)
		}
	}
	if len(p.cand) == 0 {
		if p.NoBypass || req.Prefetch {
			// Insert anyway, evicting the coldest (LRU-tie-broken)
			// resident: either the no-bypass ablation is active, or this
			// is a prefetcher-initiated fill whose transient evidence of
			// imminent reuse outweighs the holistic cold hint.
			coldestResident := temps[0]
			for _, t := range temps {
				if t < coldestResident {
					coldestResident = t
				}
			}
			for w, t := range temps {
				if t == coldestResident {
					p.cand = append(p.cand, w)
				}
			}
			return p.lru.lruAmong(set, p.cand)
		}
		// The incoming branch is uniquely coldest: bypass (Alg. 1 line 6).
		p.Bypasses++
		return btb.Bypass
	}
	return p.lru.lruAmong(set, p.cand)
}

// Coverage returns the fraction of replacement decisions where the
// temperature hint discriminated between candidates (Fig 15's metric).
func (p *Thermometer) Coverage() float64 {
	if p.Decisions == 0 {
		return 0
	}
	return float64(p.Covered) / float64(p.Decisions)
}

// TelemetryCounters implements Instrumented.
func (p *Thermometer) TelemetryCounters() map[string]uint64 {
	return map[string]uint64{
		"thermometer_decisions": p.Decisions,
		"thermometer_covered":   p.Covered,
		"thermometer_bypasses":  p.Bypasses,
	}
}

var _ btb.Policy = (*Thermometer)(nil)
var _ Instrumented = (*Thermometer)(nil)

// HolisticOnly is the Fig 16 ablation that uses *only* the holistic
// temperature hint: coldest-temperature eviction with insertion-order
// (FIFO) tie breaking, deliberately ignoring recency.
type HolisticOnly struct {
	fifo  fifoState
	temps tempState
	cand  []int // scratch: candidate ways, reused across decisions
}

// NewHolisticOnly returns the holistic-only ablation policy.
func NewHolisticOnly() *HolisticOnly { return &HolisticOnly{} }

// Name implements btb.Policy.
func (p *HolisticOnly) Name() string { return "Holistic" }

// Reset implements btb.Policy.
func (p *HolisticOnly) Reset(sets, ways int) {
	p.fifo.reset(sets, ways)
	p.temps.reset(sets, ways)
	p.cand = make([]int, 0, ways)
}

// OnHit implements btb.Policy: recency is deliberately not tracked; only
// the stored temperature is refreshed.
func (p *HolisticOnly) OnHit(set, way int, req *btb.Request) { p.temps.store(set, way, req) }

// OnInsert implements btb.Policy.
func (p *HolisticOnly) OnInsert(set, way int, req *btb.Request) {
	p.fifo.inserted(set, way)
	p.temps.store(set, way, req)
}

// Victim implements btb.Policy.
func (p *HolisticOnly) Victim(set int, req *btb.Request) int {
	temps := p.temps.of(set)
	coldest := req.Temperature
	for _, t := range temps {
		if t < coldest {
			coldest = t
		}
	}
	p.cand = p.cand[:0]
	for w, t := range temps {
		if t == coldest {
			p.cand = append(p.cand, w)
		}
	}
	if len(p.cand) == 0 {
		return btb.Bypass
	}
	return p.fifo.oldestAmong(set, p.cand)
}

var _ btb.Policy = (*HolisticOnly)(nil)

// TransientOnly is the Fig 16 ablation that uses only transient reuse
// behaviour — it is exactly LRU, aliased for figure labelling.
type TransientOnly struct{ LRU }

// NewTransientOnly returns the transient-only ablation policy.
func NewTransientOnly() *TransientOnly { return &TransientOnly{} }

// Name implements btb.Policy.
func (p *TransientOnly) Name() string { return "Transient" }
