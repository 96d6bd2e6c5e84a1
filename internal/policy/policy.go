// Package policy implements BTB replacement policies: the LRU baseline, the
// state-of-the-art hardware policies the paper compares against (SRRIP,
// GHRP, Hawkeye), the offline-optimal Belady policy, and Thermometer itself
// (Algorithm 1), plus the transient-only/holistic-only ablations of Fig 16.
//
// Each policy satisfies btb.Policy and owns all of its per-entry metadata;
// the BTB stores only architectural state (tags, targets, hint bits).
package policy

import (
	"fmt"

	"thermometer/internal/btb"
	"thermometer/internal/detmap"
)

// byName maps each policy's name, as thermod specs and btbsim's -policy
// flag spell it, to its constructor. Every constructor returns a
// deterministic policy (enforced for the roster by the invariants tests).
var byName = map[string]func() btb.Policy{
	"lru":                  func() btb.Policy { return NewLRU() },
	"random":               func() btb.Policy { return NewRandom() },
	"srrip":                func() btb.Policy { return NewSRRIP() },
	"ghrp":                 func() btb.Policy { return NewGHRP() },
	"hawkeye":              func() btb.Policy { return NewHawkeye() },
	"opt":                  func() btb.Policy { return NewOPT() },
	"thermometer":          func() btb.Policy { return NewThermometer() },
	"thermometer-nobypass": func() btb.Policy { return NewThermometerNoBypass() },
	"holistic":             func() btb.Policy { return NewHolisticOnly() },
	"transient":            func() btb.Policy { return NewTransientOnly() },
}

// Names returns the accepted policy names, sorted.
func Names() []string { return detmap.SortedKeys(byName) }

// ByName returns the constructor of the named policy, or an error listing
// the accepted names.
func ByName(name string) (func() btb.Policy, error) {
	if f := byName[name]; f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want one of %v)", name, Names())
}

// Instrumented is implemented by policies that expose internal decision
// counters to the telemetry subsystem. Keys are fully qualified snake_case
// names (e.g. "thermometer_bypasses"); values are counts since the last
// Reset. The simulator copies them into the run's metrics registry at end
// of run, so implementations may build the map on demand.
type Instrumented interface {
	TelemetryCounters() map[string]uint64
}

// lruState is the shared recency building block: per-way last-touch
// timestamps with a monotonic clock.
type lruState struct {
	stamp []uint64
	ways  int
	clock uint64
}

func (l *lruState) reset(sets, ways int) {
	l.stamp = make([]uint64, sets*ways)
	l.ways = ways
	l.clock = 0
}

// touch marks (set, way) as most recently used.
func (l *lruState) touch(set, way int) {
	l.clock++
	l.stamp[set*l.ways+way] = l.clock
}

// lruWay returns the least recently touched way of set.
func (l *lruState) lruWay(set int) int {
	base := set * l.ways
	best, bestStamp := 0, l.stamp[base]
	for w := 1; w < l.ways; w++ {
		if s := l.stamp[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// lruAmong returns the least recently touched way among candidates
// (candidates must be non-empty).
func (l *lruState) lruAmong(set int, candidates []int) int {
	base := set * l.ways
	best := candidates[0]
	for _, w := range candidates[1:] {
		if l.stamp[base+w] < l.stamp[base+best] {
			best = w
		}
	}
	return best
}

// fifoState tracks insertion order, used by the holistic-only ablation to
// break temperature ties without any recency information.
type fifoState struct {
	seq   []uint64
	ways  int
	clock uint64
}

func (f *fifoState) reset(sets, ways int) {
	f.seq = make([]uint64, sets*ways)
	f.ways = ways
	f.clock = 0
}

func (f *fifoState) inserted(set, way int) {
	f.clock++
	f.seq[set*f.ways+way] = f.clock
}

func (f *fifoState) oldestAmong(set int, candidates []int) int {
	base := set * f.ways
	best := candidates[0]
	for _, w := range candidates[1:] {
		if f.seq[base+w] < f.seq[base+best] {
			best = w
		}
	}
	return best
}

// LRU is the baseline replacement policy: evict the least recently used way.
type LRU struct {
	lru lruState
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements btb.Policy.
func (p *LRU) Name() string { return "LRU" }

// Reset implements btb.Policy.
func (p *LRU) Reset(sets, ways int) { p.lru.reset(sets, ways) }

// OnHit implements btb.Policy.
func (p *LRU) OnHit(set, way int, _ *btb.Request) { p.lru.touch(set, way) }

// OnInsert implements btb.Policy.
func (p *LRU) OnInsert(set, way int, _ *btb.Request) { p.lru.touch(set, way) }

// Victim implements btb.Policy.
func (p *LRU) Victim(set int, _ *btb.Request) int {
	return p.lru.lruWay(set)
}

// Random evicts a pseudo-randomly chosen way. It exists as a sanity
// baseline for tests (every reasonable policy should beat it).
type Random struct {
	state uint64
	ways  int
}

// NewRandom returns a Random policy with a fixed internal seed so runs are
// reproducible.
func NewRandom() *Random { return &Random{} }

// Name implements btb.Policy.
func (p *Random) Name() string { return "Random" }

// Reset implements btb.Policy.
func (p *Random) Reset(sets, ways int) { p.state = 0x9e3779b97f4a7c15; p.ways = ways }

// OnHit implements btb.Policy.
func (p *Random) OnHit(int, int, *btb.Request) {}

// OnInsert implements btb.Policy.
func (p *Random) OnInsert(int, int, *btb.Request) {}

// Victim implements btb.Policy.
func (p *Random) Victim(int, *btb.Request) int {
	// xorshift64
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(p.ways))
}
