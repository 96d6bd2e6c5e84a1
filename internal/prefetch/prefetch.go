// Package prefetch implements the BTB prefetchers the paper compares
// against and composes with (Fig 4 and Fig 21):
//
//   - Confluence (Kaynak et al., MICRO 2015) virtualizes BTB content into
//     the instruction cache hierarchy: whenever an instruction line is
//     fetched or prefetched, the BTB entries for the branches in that line
//     are installed alongside it ("BTB bundles").
//   - Shotgun (Kumar et al., ASPLOS 2018) is BTB-directed: the targets of
//     taken unconditional branches drive spatial prefetching of the
//     target region's branch working set; the BTB itself is statically
//     partitioned by branch type (modelled by core.Config.ShotgunPartition).
//   - Twig (Khan et al., MICRO 2021) is profile-guided: a profiling pass
//     correlates each BTB miss with a trigger branch executed a configurable
//     distance earlier; at run time the trigger prefetches the entries that
//     historically missed after it.
//
// All three install entries through the replacement policy via the
// simulator's insert callback, so prefetch-induced pollution (the reason
// "Confluence-LRU" can lose to OPT in Fig 4) is captured.
package prefetch

import (
	"thermometer/internal/core"
	"thermometer/internal/trace"
)

// Confluence bundles BTB entries with instruction lines. Like the real
// design — which *records* bundles as branches execute and virtualizes them
// into the cache hierarchy — it can only prefetch branches it has already
// observed; new and non-recurring streams (almost half of all BTB misses in
// data center applications, per the paper's §2.2) remain unprefetchable.
type Confluence struct {
	meta *core.TraceMeta
	seen []bool // by site ID
	// degree limits entries installed per line fill.
	degree int
}

// NewConfluence builds a Confluence prefetcher over the trace's static
// branch map (used only to locate branches within lines; prefetching is
// restricted to demand-observed branches).
func NewConfluence(meta *core.TraceMeta) *Confluence {
	return &Confluence{meta: meta, seen: make([]bool, meta.NumSites()), degree: 8}
}

// Name implements core.Prefetcher.
func (p *Confluence) Name() string { return "Confluence" }

// OnLineFill implements core.Prefetcher.
func (p *Confluence) OnLineFill(blockAddr uint64, insert core.InsertFunc) {
	first, sites := p.meta.ByBlock(blockAddr)
	seen := p.seen[first : first+len(sites)]
	installed := 0
	for k := range sites {
		if !seen[k] {
			continue
		}
		s := &sites[k]
		insert(s.PC, s.Target, s.Type)
		installed++
		if installed >= p.degree {
			return
		}
	}
}

// OnBTBAccess implements core.Prefetcher: record the branch into its line's
// bundle.
func (p *Confluence) OnBTBAccess(pc, _ uint64, _ bool, _ core.InsertFunc) {
	markSeen(p.meta, p.seen, pc)
}

// markSeen records a demand access to pc in a history prefetcher's seen
// set. A PC outside the metadata is in no block, so it is never prefetched.
func markSeen(meta *core.TraceMeta, seen []bool, pc uint64) {
	if id, ok := meta.ID(pc); ok {
		seen[id] = true
	}
}

var _ core.Prefetcher = (*Confluence)(nil)

// Shotgun prefetches the branch working set of taken-branch target regions.
// Like Confluence it is a history-based design: only branches observed on
// earlier demand accesses can be re-installed.
type Shotgun struct {
	meta *core.TraceMeta
	seen []bool // by site ID
	// regionBlocks is the spatial footprint (in 64B blocks) fetched around
	// a target.
	regionBlocks int
	degree       int
}

// NewShotgun builds a Shotgun prefetcher over the trace's static branch map.
func NewShotgun(meta *core.TraceMeta) *Shotgun {
	return &Shotgun{meta: meta, seen: make([]bool, meta.NumSites()), regionBlocks: 4, degree: 12}
}

// Name implements core.Prefetcher.
func (p *Shotgun) Name() string { return "Shotgun" }

// OnLineFill implements core.Prefetcher.
func (p *Shotgun) OnLineFill(uint64, core.InsertFunc) {}

// OnBTBAccess implements core.Prefetcher: on any taken-branch BTB access,
// prefetch the previously-seen branch entries spatially around the target
// (Shotgun's U-BTB-driven region prefetch).
func (p *Shotgun) OnBTBAccess(pc, target uint64, _ bool, insert core.InsertFunc) {
	markSeen(p.meta, p.seen, pc)
	blk := target >> 6
	installed := 0
	for b := blk; b < blk+uint64(p.regionBlocks); b++ {
		first, sites := p.meta.ByBlock(b)
		seen := p.seen[first : first+len(sites)]
		for k := range sites {
			if !seen[k] {
				continue
			}
			s := &sites[k]
			insert(s.PC, s.Target, s.Type)
			installed++
			if installed >= p.degree {
				return
			}
		}
	}
}

var _ core.Prefetcher = (*Shotgun)(nil)

// Twig is the profile-guided BTB prefetcher: a training pass replays the
// profiling trace against the target BTB geometry, attributing every BTB
// miss to a trigger branch executed `distance` taken-branches earlier; the
// (trigger → missing branches) correlation table drives run-time prefetch.
type Twig struct {
	table map[uint64][]core.BranchSite
	// distance is the trigger look-ahead in taken branches.
	distance int
	maxPer   int
}

// TwigConfig tunes training.
type TwigConfig struct {
	// Distance is the trigger lead, in taken branches (default 48).
	Distance int
	// MaxPerTrigger caps the correlation fan-out (default 6).
	MaxPerTrigger int
	// Entries/Ways give the BTB geometry used during training.
	Entries, Ways int
}

// TrainTwig builds the Twig correlation table from a profiling trace
// (typically the training input, as with Thermometer's own profile).
func TrainTwig(profileTrace *trace.Trace, cfg TwigConfig) *Twig {
	if cfg.Distance <= 0 {
		cfg.Distance = 48
	}
	if cfg.MaxPerTrigger <= 0 {
		cfg.MaxPerTrigger = 6
	}
	if cfg.Entries <= 0 {
		cfg.Entries = 8192
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 4
	}
	accesses := profileTrace.AccessStream()
	t := &Twig{
		table:    make(map[uint64][]core.BranchSite, 1<<12),
		distance: cfg.Distance,
		maxPer:   cfg.MaxPerTrigger,
	}
	// Replay an LRU BTB of the target geometry to find misses.
	sets := cfg.Entries / cfg.Ways
	type entry struct {
		pc    uint64
		stamp uint64
	}
	table := make([][]entry, sets)
	var clock uint64
	for i := range accesses {
		a := &accesses[i]
		set := table[a.PC%uint64(sets)]
		clock++
		hit := false
		for w := range set {
			if set[w].pc == a.PC {
				set[w].stamp = clock
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		// Attribute the miss to the trigger `distance` accesses earlier.
		if j := i - cfg.Distance; j >= 0 {
			trig := accesses[j].PC
			lst := t.table[trig]
			if len(lst) < cfg.MaxPerTrigger {
				dup := false
				for _, s := range lst {
					if s.PC == a.PC {
						dup = true
						break
					}
				}
				if !dup {
					t.table[trig] = append(lst, core.BranchSite{PC: a.PC, Target: a.Target, Type: a.Type})
				}
			}
		}
		// LRU fill.
		if len(set) < cfg.Ways {
			table[a.PC%uint64(sets)] = append(set, entry{pc: a.PC, stamp: clock})
			continue
		}
		victim := 0
		for w := 1; w < len(set); w++ {
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
		set[victim] = entry{pc: a.PC, stamp: clock}
	}
	return t
}

// Name implements core.Prefetcher.
func (p *Twig) Name() string { return "Twig" }

// TableSize returns the number of trigger PCs learned.
func (p *Twig) TableSize() int { return len(p.table) }

// OnLineFill implements core.Prefetcher.
func (p *Twig) OnLineFill(uint64, core.InsertFunc) {}

// OnBTBAccess implements core.Prefetcher: fire the trigger's correlated
// prefetches.
func (p *Twig) OnBTBAccess(pc, _ uint64, _ bool, insert core.InsertFunc) {
	for _, s := range p.table[pc] {
		insert(s.PC, s.Target, s.Type)
	}
}

var _ core.Prefetcher = (*Twig)(nil)
