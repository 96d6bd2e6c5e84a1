// Package profile turns Belady profiling results into the temperature hints
// Thermometer injects into branch instructions (§3.3 of the paper).
//
// A HintTable maps branch PCs to small category values (hotter = larger).
// In hardware the category travels in reserved bits of the branch encoding;
// here it travels alongside the simulated binary as a table the simulator
// consults at BTB insertion, which is functionally identical.
package profile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"thermometer/internal/belady"
	"thermometer/internal/detmap"
	"thermometer/internal/trace"
)

// Config controls temperature classification.
type Config struct {
	// Thresholds are ascending hit-to-taken boundaries in [0,1]. A branch
	// with ratio y gets category i where i is the number of thresholds
	// strictly below y... precisely: category 0 iff y <= Thresholds[0],
	// category i iff Thresholds[i-1] < y <= Thresholds[i], and the hottest
	// category iff y > Thresholds[last]. len(Thresholds)+1 categories.
	Thresholds []float64
	// DefaultCategory is assigned to branches absent from the profile
	// (e.g. code paths not exercised by the training input). The middle
	// category keeps unknown branches insertable without letting them
	// displace profiled-hot entries.
	DefaultCategory uint8
}

// DefaultConfig returns the paper's empirically best configuration: three
// categories (cold/warm/hot) split at 50% and 80% (§3.3).
func DefaultConfig() Config {
	return Config{Thresholds: []float64{0.50, 0.80}, DefaultCategory: 1}
}

// Categories returns the number of temperature categories.
func (c Config) Categories() int { return len(c.Thresholds) + 1 }

// HintBits returns the number of bits needed to encode a category.
func (c Config) HintBits() int {
	bits := 0
	for n := c.Categories() - 1; n > 0; n >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Thresholds) == 0 {
		return errors.New("profile: need at least one threshold")
	}
	prev := -1.0
	for _, t := range c.Thresholds {
		if t < 0 || t > 1 {
			return fmt.Errorf("profile: threshold %v outside [0,1]", t)
		}
		if t <= prev {
			return fmt.Errorf("profile: thresholds not strictly ascending at %v", t)
		}
		prev = t
	}
	if int(c.DefaultCategory) >= c.Categories() {
		return fmt.Errorf("profile: default category %d out of range (%d categories)",
			c.DefaultCategory, c.Categories())
	}
	return nil
}

// Categorize maps a hit-to-taken ratio to its temperature category.
func (c Config) Categorize(hitToTaken float64) uint8 {
	for i, t := range c.Thresholds {
		if hitToTaken <= t {
			return uint8(i)
		}
	}
	return uint8(len(c.Thresholds))
}

// Named categories for the default 3-category configuration.
const (
	Cold uint8 = 0
	Warm uint8 = 1
	Hot  uint8 = 2
)

// HintTable is the injected profile: branch PC → temperature category.
// It stays keyed by PC because it is the delivery format, the analogue of
// the hint bits in the binary. A table is read-only once a run has used
// it: the timing core memoizes its Column on the trace, so a later edit
// would not reach runs on that trace.
type HintTable struct {
	Config Config
	Hints  map[uint64]uint8
}

// Build computes the hint table from a Belady profiling result.
func Build(res *belady.Result, cfg Config) (*HintTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &HintTable{Config: cfg, Hints: make(map[uint64]uint8, len(res.PerBranch))}
	for i := range res.PerBranch {
		b := &res.PerBranch[i]
		t.Hints[b.PC] = cfg.Categorize(b.HitToTaken())
	}
	return t, nil
}

// Lookup returns the category for a branch PC, falling back to the
// configured default for unprofiled branches.
func (t *HintTable) Lookup(pc uint64) uint8 {
	if h, ok := t.Hints[pc]; ok {
		return h
	}
	return t.Config.DefaultCategory
}

// Column resolves the table against an access stream: one Lookup per
// static branch (site), expanded to one category per access, so col[i] is
// accesses[i]'s temperature. It stands in for reading the hint bits out of
// each fetched branch instruction. accesses may be any sub-slice of a
// trace's AccessStream.
func (t *HintTable) Column(accesses []trace.Access) []uint8 {
	bySite := make([]int16, trace.SiteCount(accesses)) // -1: not looked up yet
	for i := range bySite {
		bySite[i] = -1
	}
	col := make([]uint8, len(accesses))
	for i := range accesses {
		a := &accesses[i]
		c := bySite[a.Site]
		if c < 0 {
			c = int16(t.Lookup(a.PC))
			bySite[a.Site] = c
		}
		col[i] = uint8(c)
	}
	return col
}

// Len returns the number of profiled branches.
func (t *HintTable) Len() int { return len(t.Hints) }

// CategoryShares returns, per category, the fraction of profiled branches
// assigned to it (Fig 6's static view).
func (t *HintTable) CategoryShares() []float64 {
	counts := make([]int, t.Config.Categories())
	for _, c := range t.Hints {
		counts[c]++
	}
	out := make([]float64, len(counts))
	if len(t.Hints) == 0 {
		return out
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(len(t.Hints))
	}
	return out
}

// Agreement returns the fraction of PCs present in both tables that share a
// category — the cross-input stability metric the paper reports as 81%.
func Agreement(a, b *HintTable) float64 {
	if a == nil || b == nil {
		return 0
	}
	common, same := 0, 0
	for pc, ca := range a.Hints {
		if cb, ok := b.Hints[pc]; ok {
			common++
			if ca == cb {
				same++
			}
		}
	}
	if common == 0 {
		return 0
	}
	return float64(same) / float64(common)
}

// QuantileThresholds derives k-category thresholds from the profile's
// hit-to-taken distribution so each category holds roughly the same number
// of branches. Used by the Fig 20 category-count sensitivity study.
func QuantileThresholds(res *belady.Result, categories int) []float64 {
	if categories < 2 {
		panic("profile: need at least 2 categories")
	}
	// Sorting makes the input order irrelevant: ratios are never NaN or
	// -0, so equal values are identical.
	ratios := make([]float64, len(res.PerBranch))
	for i := range res.PerBranch {
		ratios[i] = res.PerBranch[i].HitToTaken()
	}
	sort.Float64s(ratios)
	out := make([]float64, 0, categories-1)
	prev := -1.0
	for i := 1; i < categories; i++ {
		idx := i * len(ratios) / categories
		if idx >= len(ratios) {
			idx = len(ratios) - 1
		}
		v := ratios[idx]
		if v <= prev {
			// Degenerate distribution: nudge to keep thresholds strictly
			// ascending (categories may end up empty, which is fine).
			v = prev + 1e-9
		}
		out = append(out, v)
		prev = v
	}
	return out
}

// --- serialization ---

const hintMagic = "THRMHNT1"

// Write serializes the hint table.
func (t *HintTable) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(hintMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putU(uint64(len(t.Config.Thresholds))); err != nil {
		return err
	}
	for _, th := range t.Config.Thresholds {
		// Store thresholds as parts-per-million to stay integer-only.
		if err := putU(uint64(th * 1e6)); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(t.Config.DefaultCategory); err != nil {
		return err
	}
	if err := putU(uint64(len(t.Hints))); err != nil {
		return err
	}
	// Sort PCs for deterministic output and good delta compression.
	pcs := detmap.SortedKeys(t.Hints)
	var prev uint64
	for _, pc := range pcs {
		if err := putU(pc - prev); err != nil {
			return err
		}
		prev = pc
		if err := bw.WriteByte(t.Hints[pc]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadHints parses a hint table written by Write.
func ReadHints(r io.Reader) (*HintTable, error) {
	br := bufio.NewReader(r)
	var m [len(hintMagic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("profile: reading magic: %w", err)
	}
	if string(m[:]) != hintMagic {
		return nil, errors.New("profile: bad magic (not a hint file)")
	}
	nth, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nth == 0 || nth > 64 {
		return nil, fmt.Errorf("profile: unreasonable threshold count %d", nth)
	}
	cfg := Config{Thresholds: make([]float64, nth)}
	for i := range cfg.Thresholds {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		cfg.Thresholds[i] = float64(v) / 1e6
	}
	def, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	cfg.DefaultCategory = def
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("profile: unreasonable hint count %d", n)
	}
	// Cap the preallocation: n comes from the file and a corrupt header must
	// not allocate a gigantic map before the body fails to parse.
	prealloc := n
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	t := &HintTable{Config: cfg, Hints: make(map[uint64]uint8, prealloc)}
	var pc uint64
	for i := uint64(0); i < n; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		pc += d
		c, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if int(c) >= cfg.Categories() {
			return nil, fmt.Errorf("profile: category %d out of range", c)
		}
		t.Hints[pc] = c
	}
	return t, nil
}

// ProfileTrace is the end-to-end offline pipeline (steps 2+3 of Fig 10):
// simulate OPT over the trace's access stream and build the hint table.
// Every call profiles afresh; HintsFor memoizes the table on the trace.
func ProfileTrace(tr *trace.Trace, entries, ways int, cfg Config) (*HintTable, *belady.Result, error) {
	res := belady.Profile(tr.AccessStream(), entries, ways)
	ht, err := Build(res, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ht, res, nil
}

// hintsKey is HintsFor's Memo key. A slice is not comparable, so the
// thresholds are rendered with %v, which prints each float64 in its
// shortest round-trip form: distinct lists give distinct keys.
type hintsKey struct {
	entries, ways int
	thresholds    string
	def           uint8
}

// hintsMemo is one memoized ProfileTrace outcome.
type hintsMemo struct {
	ht  *HintTable
	err error
}

// HintsFor returns ProfileTrace's hint table for the trace, built once per
// trace, geometry, threshold list and default category (memoized on the
// trace, like its access stream) and shared by every caller: concurrent
// callers with the same arguments wait for one profiling pass. The Belady
// result is not kept. Callers must treat the table as read-only.
func HintsFor(tr *trace.Trace, entries, ways int, cfg Config) (*HintTable, error) {
	k := hintsKey{entries, ways, fmt.Sprint(cfg.Thresholds), cfg.DefaultCategory}
	m := tr.Memo(k, func() any {
		ht, _, err := ProfileTrace(tr, entries, ways, cfg)
		return hintsMemo{ht, err}
	}).(hintsMemo)
	return m.ht, m.err
}
