package core

import (
	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

// The frontend pass. Four parts of the model never see the BTB: the
// direction predictor, the RAS and IBTB, the cache hierarchy's instruction
// walk and the synthetic load stream. Their state depends only on earlier
// records, and the hierarchy is touched only at addresses taken from the
// record, because a BTB miss changes how much line latency FDIP's lead
// hides, not which lines are fetched. So their per-record outcomes are a
// pure function of the trace and the Config fields in frontKey. One pass
// records them per trace and key, memoized on the trace, and every run on
// that trace (whatever its BTB, policy, prefetcher or audits) replays them.

// frontKey is the part of a Config the frontend pass reads.
type frontKey struct {
	PerfectBP     bool
	PerfectICache bool
	DataFootprint uint64
	IBTBEntries   int
	RASEntries    int
}

func keyOf(cfg *Config) frontKey {
	return frontKey{
		PerfectBP:     cfg.PerfectBP,
		PerfectICache: cfg.PerfectICache,
		DataFootprint: cfg.DataFootprint,
		IBTBEntries:   cfg.IBTBEntries,
		RASEntries:    cfg.RASEntries,
	}
}

// frontRec is one record's frontend outcomes (6 bytes).
type frontRec struct {
	// dataStall is the block's data-stall cycles; frontSpill means the
	// value did not fit and is the next unread entry of frontStream.spill.
	dataStall uint16
	// lines counts the block's instruction lines that missed each level:
	// L1I in bits 0-3, L2 in bits 4-7, LLC in bits 8-11 (at most 8 each).
	lines uint16
	// flags holds the frontDir*/RAS/IBTB bits and, in bits 4-5, the worst
	// cache.Level any of the block's lines reached.
	flags uint8
}

const (
	frontDirLookup  = 1 << iota // conditional branch seen by a predictor
	frontDirMiss                // direction mispredict
	frontRASMiss                // return target mispredict
	frontIBTBMiss               // indirect target mispredict
	frontLevelShift = 4

	frontTargetMiss = frontRASMiss | frontIBTBMiss
	frontSpill      = 1<<16 - 1
)

func (f *frontRec) level() cache.Level { return cache.Level(f.flags >> frontLevelShift) }

// frontStream is the frontend pass's output for one trace and key.
type frontStream struct {
	recs []frontRec
	// spill holds, in record order, every data stall of frontSpill cycles
	// or more.
	spill []uint64
}

// frontendFor returns the trace's frontend stream for k, memoized on the
// trace.
func frontendFor(tr *trace.Trace, k frontKey) *frontStream {
	return tr.Memo(k, func() any { return runFrontend(tr.Records, k) }).(*frontStream)
}

// runFrontend runs TAGE (none under PerfectBP), the RAS and IBTB, the
// instruction walk and the load stream over every record, in the order the
// timing loop consumes them, and records each record's outcomes.
func runFrontend(recs []trace.Record, k frontKey) *frontStream {
	fs := &frontStream{recs: make([]frontRec, len(recs))}
	var pred *bpred.TAGE
	if !k.PerfectBP {
		pred = bpred.NewTAGE()
	}
	ras, ibtb := btb.NewRAS(k.RASEntries), btb.NewIBTB(k.IBTBEntries)
	hier := cache.NewHierarchy()
	rng := xrand.New(0xDA7A ^ uint64(len(recs)))
	for i := range recs {
		r, f := &recs[i], &fs.recs[i]
		if pred != nil && r.Type.IsConditional() {
			f.flags |= frontDirLookup
			if pred.Predict(r.PC) != r.Taken {
				f.flags |= frontDirMiss
			}
			pred.Update(r.PC, r.Taken)
		}
		if r.Taken {
			f.flags |= targetOutcome(ras, ibtb, r)
		}
		n := uint64(r.BlockLen) + 1
		if !k.PerfectICache {
			f.flags |= uint8(instrWalk(hier, r, n, &f.lines)) << frontLevelShift
		}
		if d := dataLoads(hier, rng, n, k.DataFootprint); d < frontSpill {
			f.dataStall = uint16(d)
		} else {
			f.dataStall = frontSpill
			fs.spill = append(fs.spill, d)
		}
	}
	return fs
}

// targetOutcome runs the RAS and IBTB for a taken branch and reports its
// target-mispredict flag.
func targetOutcome(ras *btb.RAS, ibtb *btb.IBTB, r *trace.Record) uint8 {
	switch r.Type {
	case trace.Call:
		ras.Push(r.PC + 5)
	case trace.IndirectCall:
		ras.Push(r.PC + 6)
	case trace.Return:
		if addr, ok := ras.Pop(); !ok || addr != r.Target {
			return frontRASMiss
		}
	default:
		// Direct jumps and conditional branches don't touch the RAS.
	}
	if r.Type == trace.IndirectJump || r.Type == trace.IndirectCall {
		if !ibtb.Update(r.PC, r.Target) {
			return frontIBTBMiss
		}
	}
	return 0
}

// blockLines returns the first and last 64-byte line of the n-instruction
// block following r (at most eight lines).
func blockLines(r *trace.Record, n uint64) (first, last uint64) {
	start := r.PC + 4
	if r.Taken {
		start = r.Target
	}
	first, last = start>>6, (start+4*n)>>6
	if last-first > 7 {
		last = first + 7
	}
	return first, last
}

// instrWalk fetches the block's instruction lines, adds their per-level
// misses to *lines, and returns the level of the first line with the worst
// latency.
func instrWalk(h *cache.Hierarchy, r *trace.Record, n uint64, lines *uint16) cache.Level {
	first, last := blockLines(r, n)
	var worst int
	worstLvl := cache.L1
	for blk := first; blk <= last; blk++ {
		lvl, lat := h.FetchInstr(blk << 6)
		if lvl > cache.L1 {
			// A line that missed level l also missed every level above it.
			*lines += [4]uint16{0, 0x001, 0x011, 0x111}[lvl]
		}
		if lat > worst {
			worst = lat
			worstLvl = lvl
		}
	}
	return worstLvl
}

// dataLoads runs the synthetic loads of an n-instruction block, the rarest
// of them spread over footprint bytes, through the hierarchy and returns
// their stall cycles.
func dataLoads(h *cache.Hierarchy, rng *xrand.RNG, n, footprint uint64) uint64 {
	var dataStall uint64
	loads := int(n) / 6
	for j := 0; j < loads; j++ {
		roll := rng.Float64()
		var addr uint64
		switch {
		case roll < 0.85: // stack/top-of-heap working set
			addr = rng.Uint64n(16 << 10)
		case roll < 0.99: // mid-size structures
			addr = (1 << 20) + rng.Uint64n(128<<10)
		default: // big-data footprint
			addr = (8 << 20) + rng.Uint64n(footprint)
		}
		_, lat := h.LoadData(addr)
		dataStall += uint64(lat / mlp)
	}
	return dataStall
}

// frontTally is the frontend's post-warm-up direction, target and
// instruction-miss counters.
type frontTally struct {
	lookups, dirMiss, rasMiss, ibtbMiss, l1, l2, llc uint64
}

// tallyKey is tallyFor's Memo key. The sums depend only on the stream and
// the warm-up start.
type tallyKey struct {
	front frontKey
	from  int
}

// tallyFor returns the tally of records [from, len) of fs, k's stream,
// memoized on the trace with the stream.
func tallyFor(tr *trace.Trace, k frontKey, fs *frontStream, from int) frontTally {
	return tr.Memo(tallyKey{k, from}, func() any { return fs.tally(from) }).(frontTally)
}

// tally sums the outcome counts of records [from, len).
func (fs *frontStream) tally(from int) frontTally {
	var t frontTally
	for _, f := range fs.recs[from:] {
		fl, ln := uint64(f.flags), uint64(f.lines)
		t.lookups += fl & frontDirLookup
		t.dirMiss += fl >> 1 & 1
		t.rasMiss += fl >> 2 & 1
		t.ibtbMiss += fl >> 3 & 1
		t.l1 += ln & 0xf
		t.l2 += ln >> 4 & 0xf
		t.llc += ln >> 8 & 0xf
	}
	return t
}

// addTo adds the tally to res's counters.
func (t frontTally) addTo(res *Result) {
	res.DirLookups += t.lookups
	res.DirMispredicts += t.dirMiss
	res.RASMispredicts += t.rasMiss
	res.IBTBMispredicts += t.ibtbMiss
	res.InstrL1Misses += t.l1
	res.InstrL2Misses += t.l2
	res.InstrLLCMisses += t.llc
}
