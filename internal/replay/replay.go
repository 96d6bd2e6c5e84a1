// Package replay drives a BTB model over a trace's access stream without
// timing — the fast simulation mode used for miss-rate studies (Figs 12 and
// 17), for replacement accuracy analysis (Fig 16), and inside tests.
package replay

import (
	"sort"

	"thermometer/internal/btb"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

// Options configures a replay run.
type Options struct {
	// Entries and Ways set the BTB geometry; Sets (if nonzero) overrides
	// the derived set count.
	Entries int
	Ways    int
	Sets    int
	// Policy is the replacement policy to exercise.
	Policy btb.Policy
	// Hints, when non-nil, supplies Thermometer temperature categories.
	Hints *profile.HintTable
	// RecordEvictions captures every eviction for accuracy analysis.
	RecordEvictions bool
	// WarmupFrac is the fraction of the stream used to warm the BTB before
	// statistics (and eviction recording) begin, removing compulsory-miss
	// dilution — the standard trace-simulation methodology.
	WarmupFrac float64
}

// Eviction records one replacement decision for post-hoc analysis.
type Eviction struct {
	// AccessIndex is the position in the access stream at which the
	// eviction happened.
	AccessIndex int
	// Set is the BTB set.
	Set int
	// VictimPC is the evicted branch.
	VictimPC uint64
}

// Result reports a replay run.
type Result struct {
	Stats      btb.Stats
	Sets, Ways int
	Evictions  []Eviction
}

// MissRatio returns misses per access.
func (r *Result) MissRatio() float64 {
	if r.Stats.Accesses == 0 {
		return 0
	}
	return float64(r.Stats.Misses) / float64(r.Stats.Accesses)
}

// Run replays the access stream through a BTB with the given options.
func Run(accesses []trace.Access, o Options) *Result {
	sets := o.Sets
	if sets == 0 {
		sets = o.Entries / o.Ways
	}
	b := btb.NewWithSets(sets, o.Ways, o.Policy)
	res := &Result{Sets: sets, Ways: o.Ways}
	warmupEnd := int(o.WarmupFrac * float64(len(accesses)))
	var temps []uint8 // the hint column: one temperature per access
	if o.Hints != nil {
		temps = o.Hints.Column(accesses)
	}
	req := btb.Request{}
	for i := range accesses {
		if i == warmupEnd && i > 0 {
			b.ResetStats()
			res.Evictions = res.Evictions[:0]
		}
		a := &accesses[i]
		req = btb.Request{
			PC:      a.PC,
			Target:  a.Target,
			Type:    a.Type,
			NextUse: a.NextUse,
			Index:   i,
		}
		if temps != nil {
			req.Temperature = temps[i]
		}
		r := b.Access(&req)
		if o.RecordEvictions && r.Evicted.Valid {
			res.Evictions = append(res.Evictions, Eviction{
				AccessIndex: i,
				Set:         b.SetIndex(a.PC),
				VictimPC:    r.Evicted.PC,
			})
		}
	}
	res.Stats = b.Stats()
	return res
}

// Accuracy computes the Fig 16 replacement-accuracy metric: the fraction of
// victims whose forward reuse distance (unique branches accessing the same
// set before the victim's next access) is at least the associativity — i.e.
// victims that even an oracle could not have kept alive in the set.
func Accuracy(accesses []trace.Access, res *Result) float64 {
	if len(res.Evictions) == 0 {
		return 1
	}
	// Index the access stream by set for bounded forward scans.
	perSet := make(map[int][]int)
	for i := range accesses {
		s := int(accesses[i].PC % uint64(res.Sets))
		perSet[s] = append(perSet[s], i)
	}
	accurate := 0
	seen := make(map[uint64]struct{}, res.Ways+1)
	for _, ev := range res.Evictions {
		list := perSet[ev.Set]
		// First position strictly after the eviction point.
		pos := sort.SearchInts(list, ev.AccessIndex+1)
		clear(seen)
		good := true
		for _, idx := range list[pos:] {
			pc := accesses[idx].PC
			if pc == ev.VictimPC {
				// Victim reused before `ways` unique competitors: keeping
				// it could have produced a hit, so the eviction was a
				// mistake.
				good = false
				break
			}
			seen[pc] = struct{}{}
			if len(seen) >= res.Ways {
				break
			}
		}
		if good {
			accurate++
		}
	}
	return float64(accurate) / float64(len(res.Evictions))
}
