package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
)

// NumTemperatures is the number of temperature-occupancy slots an epoch
// tracks. Thermometer's default profile uses 3 categories (cold/warm/hot);
// 4 slots cover every 2-bit hint encoding (§3.4).
const NumTemperatures = 4

// Cumulative carries the simulator's running totals at one point in the
// run. The epoch sampler differences consecutive snapshots to produce
// per-epoch rates; occupancy fields are point-in-time, not cumulative.
type Cumulative struct {
	Instructions uint64
	Cycles       uint64

	BTBAccesses      uint64
	BTBHits          uint64
	BTBMisses        uint64
	BTBBypasses      uint64
	BTBEvictions     uint64
	BTBPrefetchFills uint64

	RedirectStall uint64
	ICacheStall   uint64
	DataStall     uint64

	// BTBValid of BTBCapacity entries hold valid branches; TempOccupancy
	// breaks BTBValid down by stored temperature hint.
	BTBValid      uint64
	BTBCapacity   uint64
	TempOccupancy [NumTemperatures]uint64
}

// Epoch is one closed sampling interval.
type Epoch struct {
	Index uint64 `json:"epoch"`
	// StartInstr/EndInstr delimit the epoch in retired instructions
	// (EndInstr − StartInstr can be short for the final, partial epoch).
	StartInstr uint64 `json:"start_instr"`
	EndInstr   uint64 `json:"end_instr"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	BTBAccesses      uint64  `json:"btb_accesses"`
	BTBHits          uint64  `json:"btb_hits"`
	BTBMisses        uint64  `json:"btb_misses"`
	BTBBypasses      uint64  `json:"btb_bypasses"`
	BTBEvictions     uint64  `json:"btb_evictions"`
	BTBPrefetchFills uint64  `json:"btb_prefetch_fills"`
	BTBMPKI          float64 `json:"btb_mpki"`
	BTBHitRate       float64 `json:"btb_hit_rate"`

	RedirectStall uint64 `json:"redirect_stall"`
	ICacheStall   uint64 `json:"icache_stall"`
	DataStall     uint64 `json:"data_stall"`

	// Occupancy is the fraction of valid BTB entries at epoch close;
	// TempOccupancy[t] is the fraction of capacity holding temperature t.
	Occupancy     float64                  `json:"occupancy"`
	TempOccupancy [NumTemperatures]float64 `json:"temp_occupancy"`
}

// EpochSampler cuts a run into fixed-length instruction epochs and records
// one Epoch per interval. It is driven by Tick with cumulative totals; the
// final partial epoch is flushed by Finish so that the series always
// accounts for every retired instruction.
type EpochSampler struct {
	// Interval is the epoch length in retired instructions.
	Interval uint64

	epochs []Epoch
	prev   Cumulative
	next   uint64
	done   bool
}

// NewEpochSampler returns a sampler with the given epoch length in
// instructions (minimum 1).
func NewEpochSampler(interval uint64) *EpochSampler {
	if interval < 1 {
		interval = 1
	}
	return &EpochSampler{Interval: interval, next: interval}
}

// Due reports whether instr has crossed the next epoch boundary — i.e.
// whether the next Tick will close an epoch. Callers with an expensive
// snapshot to assemble (occupancy censuses) use it to skip the work on
// non-boundary blocks.
func (s *EpochSampler) Due(instr uint64) bool {
	return !s.done && instr >= s.next
}

// Restart discards all recorded epochs and re-bases the sampler on the
// current totals being zero — used when the simulator resets statistics at
// the end of warmup, so the series covers exactly the measured region.
func (s *EpochSampler) Restart() {
	s.epochs = nil
	s.prev = Cumulative{}
	s.next = s.Interval
	s.done = false
}

// Tick feeds the sampler the current cumulative totals; it closes an epoch
// whenever the instruction count crosses an interval boundary. Call it once
// per simulated block; the common (no-boundary) case is a single compare.
func (s *EpochSampler) Tick(cum *Cumulative) {
	if cum.Instructions < s.next || s.done {
		return
	}
	// Blocks are multi-instruction, so one block can cross several
	// boundaries; close one epoch covering all of them (epochs are aligned
	// to block retirement, not to exact instruction counts, matching how a
	// block-granular simulator retires work).
	s.close(cum)
	for s.next <= cum.Instructions {
		s.next += s.Interval
	}
}

// Finish flushes the final partial epoch (if any instructions retired since
// the last boundary) and freezes the sampler. It reports whether it closed
// an epoch.
func (s *EpochSampler) Finish(cum *Cumulative) bool {
	if s.done {
		return false
	}
	s.done = true
	if cum.Instructions > s.prev.Instructions {
		s.close(cum)
		return true
	}
	return false
}

func (s *EpochSampler) close(cum *Cumulative) {
	e := Epoch{
		Index:      uint64(len(s.epochs)),
		StartInstr: s.prev.Instructions,
		EndInstr:   cum.Instructions,

		Instructions: cum.Instructions - s.prev.Instructions,
		Cycles:       cum.Cycles - s.prev.Cycles,

		BTBAccesses:      cum.BTBAccesses - s.prev.BTBAccesses,
		BTBHits:          cum.BTBHits - s.prev.BTBHits,
		BTBMisses:        cum.BTBMisses - s.prev.BTBMisses,
		BTBBypasses:      cum.BTBBypasses - s.prev.BTBBypasses,
		BTBEvictions:     cum.BTBEvictions - s.prev.BTBEvictions,
		BTBPrefetchFills: cum.BTBPrefetchFills - s.prev.BTBPrefetchFills,

		RedirectStall: cum.RedirectStall - s.prev.RedirectStall,
		ICacheStall:   cum.ICacheStall - s.prev.ICacheStall,
		DataStall:     cum.DataStall - s.prev.DataStall,
	}
	if e.Cycles > 0 {
		e.IPC = float64(e.Instructions) / float64(e.Cycles)
	}
	if e.Instructions > 0 {
		e.BTBMPKI = float64(e.BTBMisses) / float64(e.Instructions) * 1000
	}
	if e.BTBAccesses > 0 {
		e.BTBHitRate = float64(e.BTBHits) / float64(e.BTBAccesses)
	}
	if cum.BTBCapacity > 0 {
		e.Occupancy = float64(cum.BTBValid) / float64(cum.BTBCapacity)
		for t := range cum.TempOccupancy {
			e.TempOccupancy[t] = float64(cum.TempOccupancy[t]) / float64(cum.BTBCapacity)
		}
	}
	s.epochs = append(s.epochs, e)
	s.prev = *cum
}

// Epochs returns the closed epochs so far (not a copy; callers must not
// mutate).
func (s *EpochSampler) Epochs() []Epoch { return s.epochs }

// WriteCSV writes the epoch series as CSV with a header row.
func (s *EpochSampler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"epoch", "start_instr", "end_instr", "instructions", "cycles", "ipc",
		"btb_accesses", "btb_hits", "btb_misses", "btb_bypasses",
		"btb_evictions", "btb_prefetch_fills", "btb_mpki", "btb_hit_rate",
		"redirect_stall", "icache_stall", "data_stall", "occupancy",
	}
	for t := 0; t < NumTemperatures; t++ {
		header = append(header, fmt.Sprintf("occupancy_temp%d", t))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	f := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	for i := range s.epochs {
		e := &s.epochs[i]
		row := []string{
			u(e.Index), u(e.StartInstr), u(e.EndInstr), u(e.Instructions),
			u(e.Cycles), f(e.IPC),
			u(e.BTBAccesses), u(e.BTBHits), u(e.BTBMisses), u(e.BTBBypasses),
			u(e.BTBEvictions), u(e.BTBPrefetchFills), f(e.BTBMPKI), f(e.BTBHitRate),
			u(e.RedirectStall), u(e.ICacheStall), u(e.DataStall), f(e.Occupancy),
		}
		for t := 0; t < NumTemperatures; t++ {
			row = append(row, f(e.TempOccupancy[t]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
