// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigNN function returns one or more Tables whose rows are
// the series the paper plots; cmd/paperfigs renders them (paperfigs -exp
// <id> prints one).
//
// All experiments accept a Context, which fixes the trace scale (full-length
// traces for the record, shorter ones for quick runs) and caches generated
// traces across experiments; hint tables are memoized on those traces.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/detmap"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/runner"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the table as GitHub-flavored markdown — the shape CI
// appends to $GITHUB_STEP_SUMMARY. Cells are pipe-escaped so a value can
// never break the table structure.
func (t *Table) RenderMarkdown(w io.Writer) {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	fmt.Fprintf(w, "### %s: %s\n\n", esc(t.ID), esc(t.Title))
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(t.Header)))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n_%s_\n", esc(n))
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Context carries experiment configuration and caches.
type Context struct {
	// Scale divides every trace length (1 = the full 400K-record traces
	// used for recorded results).
	Scale int
	// CBP5Traces / IPC1Traces bound the suite sizes (0 = full suites).
	CBP5Traces int
	IPC1Traces int

	// Workers sets the pool width for the per-app/per-trace loops inside
	// each experiment (0 = GOMAXPROCS, 1 = serial). Tables are identical at
	// any width: loop bodies write indexed slots and aggregation stays
	// serial, so floating-point sums accumulate in the same order.
	Workers int
	// Ctx, when non-nil, cancels experiments between loop iterations; a
	// canceled run panics with the context's error (recovered by
	// cmd/paperfigs into a timeout exit).
	Ctx context.Context

	// Telemetry, when non-nil, collects sweep-level metrics: per-experiment
	// wall time, trace cache traffic. cmd/paperfigs wires it for its
	// -metrics and -http flags; nil disables collection.
	Telemetry *telemetry.Registry

	mu     sync.Mutex
	traces map[string]*ctxTraceSlot // guarded by mu
}

// ctxTraceSlot is a single-flight cache slot: the goroutine that creates a
// slot under c.mu counts the miss and every other requester blocks on the
// Once instead of regenerating, so cache counters stay deterministic at any
// pool width.
type ctxTraceSlot struct {
	once sync.Once
	tr   *trace.Trace
}

// forEach runs fn(0..n-1) on the context's worker pool with serial
// semantics preserved: fn must write results only to its own index, panics
// re-propagate (lowest index first, as a serial loop would), and a canceled
// Ctx stops dispatching and panics with the context error.
func (c *Context) forEach(n int, fn func(i int)) {
	if c.Ctx != nil && c.Ctx.Err() != nil {
		panic(c.Ctx.Err())
	}
	panics := make([]any, n)
	runner.ForEach(c.Workers, n, func(i int) {
		if c.Ctx != nil && c.Ctx.Err() != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		fn(i)
	})
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if c.Ctx != nil && c.Ctx.Err() != nil {
		panic(c.Ctx.Err())
	}
}

// appTable completes t with one row per app plus the Avg rows and returns
// it as the figure's only table. row computes one app's values on the
// worker pool; the rows and sums are then assembled serially in app order,
// so the floating-point sums, and the table, are the same at any pool
// width. Every value renders as a percentage. Each Avg cell is the
// arithmetic mean of its column's per-app values: the paper's Avg rows
// average percentage speedups and are not geometric means. noVerilator
// puts an "Avg no verilator" row before Avg, for the figures that leave
// out verilator's outlier instruction misses (Fig 3).
func (c *Context) appTable(t *Table, apps []string, noVerilator bool, row func(app string) []float64) []*Table {
	vals := make([][]float64, len(apps))
	c.forEach(len(apps), func(i int) { vals[i] = row(apps[i]) })
	sums := make([]float64, len(t.Header)-1)
	sumsNoVeri := make([]float64, len(sums))
	for i, app := range apps {
		cells := []string{app}
		for j, v := range vals[i] {
			sums[j] += v
			if app != "verilator" {
				sumsNoVeri[j] += v
			}
			cells = append(cells, pct(v))
		}
		t.AddRow(cells...)
	}
	avg := func(label string, sums []float64, n int) {
		cells := []string{label}
		for _, s := range sums {
			cells = append(cells, pct(s/float64(n)))
		}
		t.AddRow(cells...)
	}
	if noVerilator {
		avg("Avg no verilator", sumsNoVeri, len(apps)-1)
	}
	avg("Avg", sums, len(apps))
	return []*Table{t}
}

// count bumps a telemetry counter if collection is enabled.
func (c *Context) count(name string) {
	if c.Telemetry != nil {
		c.Telemetry.Counter(name).Inc()
	}
}

// Run executes one registered experiment, recording its wall time (in
// milliseconds, under "exp_<id>_ms") and completion count when telemetry is
// attached. It panics on unknown IDs, like indexing Registry directly.
func (c *Context) Run(id string) []*Table {
	fn := Registry[id]
	if fn == nil {
		panic("experiments: unknown experiment " + id)
	}
	start := time.Now() //lint:allow noambient wall-clock experiment timing for telemetry, not simulated time
	tables := fn(c)
	if c.Telemetry != nil {
		//lint:allow noambient wall-clock experiment timing for telemetry, not simulated time
		c.Telemetry.Counter("exp_" + id + "_ms").Add(uint64(time.Since(start).Milliseconds()))
		c.Telemetry.Counter("experiments_run").Inc()
	}
	return tables
}

// NewContext returns a context at the given scale.
func NewContext(scale int) *Context {
	if scale < 1 {
		scale = 1
	}
	return &Context{Scale: scale, traces: make(map[string]*ctxTraceSlot)}
}

// AppTrace returns (and caches) the trace for an application input.
// Concurrent requests for the same trace single-flight: one goroutine
// generates, the rest wait.
func (c *Context) AppTrace(name string, input int) *trace.Trace {
	key := fmt.Sprintf("%s#%d", name, input)
	c.mu.Lock()
	slot, ok := c.traces[key]
	if !ok {
		slot = &ctxTraceSlot{}
		c.traces[key] = slot
		c.count("trace_cache_misses")
	} else {
		c.count("trace_cache_hits")
	}
	c.mu.Unlock()
	slot.once.Do(func() {
		spec, ok := workload.App(name)
		if !ok {
			panic("experiments: unknown app " + name)
		}
		slot.tr = spec.ScaleLength(1, c.Scale).Generate(input)
	})
	if slot.tr == nil {
		panic("experiments: trace generation for " + key + " previously failed")
	}
	return slot.tr
}

// Hints returns the Thermometer hint table for an app input under the given
// geometry and profile configuration, memoized on the input's trace
// (profile.HintsFor).
func (c *Context) Hints(name string, input, entries, ways int, cfg profile.Config) *profile.HintTable {
	ht, err := profile.HintsFor(c.AppTrace(name, input), entries, ways, cfg)
	if err != nil {
		panic(err)
	}
	return ht
}

// cbp5Count returns the number of CBP-5 traces to run.
func (c *Context) cbp5Count() int {
	if c.CBP5Traces > 0 && c.CBP5Traces < workload.CBP5Count {
		return c.CBP5Traces
	}
	return workload.CBP5Count
}

func (c *Context) ipc1Count() int {
	if c.IPC1Traces > 0 && c.IPC1Traces < workload.IPC1Count {
		return c.IPC1Traces
	}
	return workload.IPC1Count
}

// --- shared policy roster ---

// policyFactories returns the comparison policies of Figs 1/11/12.
func policyFactories() []struct {
	Name string
	New  func() btb.Policy
} {
	return []struct {
		Name string
		New  func() btb.Policy
	}{
		{"SRRIP", func() btb.Policy { return policy.NewSRRIP() }},
		{"GHRP", func() btb.Policy { return policy.NewGHRP() }},
		{"Hawkeye", func() btb.Policy { return policy.NewHawkeye() }},
	}
}

// runPolicy is a helper running the timing simulator with a policy factory
// and optional hints.
func runPolicy(tr *trace.Trace, newPolicy func() btb.Policy, hints *profile.HintTable, mut func(*core.Config)) *core.Result {
	cfg := core.DefaultConfig()
	cfg.NewPolicy = newPolicy
	cfg.Hints = hints
	if mut != nil {
		mut(&cfg)
	}
	return core.Run(tr, cfg)
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f", 100*f) }

// f2 formats with two decimals.
func f2(f float64) string { return fmt.Sprintf("%.2f", f) }

// Registry maps experiment IDs to their functions.
var Registry = map[string]func(*Context) []*Table{
	"table1": TableOne,
	"fig1":   Fig1,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,
	"fig17":  Fig17,
	"fig18":  Fig18,
	"fig19":  Fig19,
	"fig20":  Fig20,
	"fig21":  Fig21,
}

// IDs returns the registered experiment IDs in a stable order.
func IDs() []string {
	out := detmap.SortedKeys(Registry)
	sort.Slice(out, func(i, j int) bool {
		// table1 first, then figN numerically, then extras alphabetically.
		num := func(s string) int {
			if s == "table1" {
				return -1
			}
			var n int
			if _, err := fmt.Sscanf(s, "fig%d", &n); err != nil {
				return 1 << 20 // non-figure extras (e.g. ablations) last
			}
			return n
		}
		ni, nj := num(out[i]), num(out[j])
		if ni != nj {
			return ni < nj
		}
		return out[i] < out[j]
	})
	return out
}

// TableOne prints the simulation parameters (Table 1).
func TableOne(*Context) []*Table {
	t := &Table{ID: "table1", Title: "Simulation parameters", Header: []string{"Parameter", "Value"}}
	for _, row := range core.Table1() {
		t.AddRow(row[0], row[1])
	}
	return []*Table{t}
}

// beladyResult profiles a trace under the default geometry.
func beladyResult(tr *trace.Trace) *belady.Result {
	cfg := core.DefaultConfig()
	return belady.Profile(tr.AccessStream(), cfg.BTBEntries, cfg.BTBWays)
}
