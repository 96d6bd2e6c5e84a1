package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"thermometer/internal/profile"
)

// quickCtx returns a context small enough for unit tests.
func quickCtx() *Context {
	c := NewContext(4) // 100K-record traces
	c.CBP5Traces = 6
	c.IPC1Traces = 3
	return c
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "ablations",
		"hintqual", "regret", "twolevel"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	ids := IDs()
	if ids[0] != "table1" || ids[1] != "fig1" || ids[len(ids)-1] != "twolevel" {
		t.Fatalf("IDs order wrong: %v", ids)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "va|ue")
	var buf bytes.Buffer
	tab.RenderMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"### x: T", "| a | bb |", "|---|---|", `| 1 | va\|ue |`, "_n_"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown render missing %q in %q", want, out)
		}
	}
}

func TestTableOne(t *testing.T) {
	tabs := TableOne(quickCtx())
	if len(tabs) != 1 || len(tabs[0].Rows) != 3 {
		t.Fatalf("table1 = %+v", tabs)
	}
}

func TestContextCaching(t *testing.T) {
	c := quickCtx()
	a := c.AppTrace("kafka", 0)
	b := c.AppTrace("kafka", 0)
	if a != b {
		t.Fatal("trace not cached")
	}
	h1 := c.Hints("kafka", 0, 8192, 4, profile.DefaultConfig())
	h2 := c.Hints("kafka", 0, 8192, 4, profile.DefaultConfig())
	if h1 != h2 {
		t.Fatal("hints not cached")
	}
}

// TestForEachPanicSemantics: with panics at two indices, forEach re-raises
// the lower index's value, as a serial loop would, and only after every
// other index has run, at any pool width.
func TestForEachPanicSemantics(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 8} {
		ran := make([]bool, n)
		got := func() (r any) {
			defer func() { r = recover() }()
			(&Context{Workers: workers}).forEach(n, func(i int) {
				ran[i] = true
				if i == 9 || i == 41 {
					panic(i)
				}
			})
			return nil
		}()
		if got != 9 {
			t.Errorf("workers %d: re-raised %v, want 9", workers, got)
		}
		for i, ok := range ran {
			if !ok {
				t.Errorf("workers %d: index %d never ran", workers, i)
			}
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tabs := Fig1(quickCtx())
	tab := tabs[0]
	if len(tab.Rows) != 14 { // 13 apps + Avg
		t.Fatalf("fig1 rows = %d", len(tab.Rows))
	}
	avg := tab.Rows[13]
	if avg[0] != "Avg" {
		t.Fatal("no Avg row")
	}
	srrip, opt := parsePct(t, avg[1]), parsePct(t, avg[4])
	if opt <= srrip {
		t.Fatalf("OPT avg %v <= SRRIP avg %v", opt, srrip)
	}
	if opt <= 1 {
		t.Fatalf("OPT avg %v implausibly small", opt)
	}
}

func TestFig2Ordering(t *testing.T) {
	tabs := Fig2(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	btb, bp, ic := parsePct(t, avg[1]), parsePct(t, avg[2]), parsePct(t, avg[3])
	if btb <= ic {
		t.Fatalf("Perfect-BTB %v <= Perfect-IC %v (paper ordering violated)", btb, ic)
	}
	if btb <= bp {
		t.Fatalf("Perfect-BTB %v <= Perfect-BP %v", btb, bp)
	}
}

func TestFig3VerilatorOutlier(t *testing.T) {
	tabs := Fig3(quickCtx())
	vals := map[string]float64{}
	for _, row := range tabs[0].Rows {
		vals[row[0]] = parsePct(t, row[1]) // plain MPKI column
	}
	if vals["verilator"] < 4*vals["cassandra"] {
		t.Fatalf("verilator L2iMPKI %v not an outlier vs cassandra %v",
			vals["verilator"], vals["cassandra"])
	}
}

func TestFig5TransientLarger(t *testing.T) {
	tabs := Fig5(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	ratio := parsePct(t, avg[3]) // plain ratio column
	if ratio < 1.2 {
		t.Fatalf("avg variance ratio %v < 1.2", ratio)
	}
}

func TestFig6Monotone(t *testing.T) {
	tabs := Fig6(quickCtx())
	rows := tabs[0].Rows
	prev := 101.0
	for _, row := range rows {
		v := parsePct(t, row[1]) // drupal column (f2 of fraction*100... check)
		if v > prev+1e-9 {
			t.Fatalf("hit-to-taken not descending: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestFig9HotInserted(t *testing.T) {
	tabs := Fig9(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	cold, hot := parsePct(t, avg[1]), parsePct(t, avg[3])
	if cold <= hot {
		t.Fatalf("cold bypass %v <= hot bypass %v", cold, hot)
	}
}

func TestFig11ThermometerBetween(t *testing.T) {
	tabs := Fig11(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	srrip := parsePct(t, avg[1])
	therm := parsePct(t, avg[4])
	opt := parsePct(t, avg[6])
	if !(srrip < therm && therm < opt) {
		t.Fatalf("ordering violated: SRRIP %v, Therm %v, OPT %v", srrip, therm, opt)
	}
	if therm/opt < 0.3 {
		t.Fatalf("Thermometer fraction of OPT %v too small", therm/opt)
	}
}

func TestFig12MissReductions(t *testing.T) {
	tabs := Fig12(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	therm, opt := parsePct(t, avg[4]), parsePct(t, avg[5])
	if therm <= 0 || opt <= therm {
		t.Fatalf("miss reductions wrong: therm %v opt %v", therm, opt)
	}
}

func TestFig16AccuracyOrdering(t *testing.T) {
	tabs := Fig16(quickCtx())
	avg := tabs[0].Rows[len(tabs[0].Rows)-1]
	tr, ho, th := parsePct(t, avg[1]), parsePct(t, avg[2]), parsePct(t, avg[3])
	if !(tr < th && ho <= th+5) {
		t.Fatalf("accuracy ordering unexpected: transient %v holistic %v therm %v", tr, ho, th)
	}
}

func TestFig17RunsSubset(t *testing.T) {
	c := quickCtx()
	tabs := Fig17(c)
	if len(tabs[0].Rows) < 8 {
		t.Fatalf("fig17 rows = %d", len(tabs[0].Rows))
	}
}

func TestFig18RunsSubset(t *testing.T) {
	tabs := Fig18(quickCtx())
	if len(tabs[0].Rows) < 2 {
		t.Fatalf("fig18 rows = %d", len(tabs[0].Rows))
	}
}

func TestCrossValidateThresholdsValid(t *testing.T) {
	c := quickCtx()
	tr := c.AppTrace("python", 0)
	cfg, err := profile.CrossValidateThresholds(tr.AccessStream(), 1024, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("cross-validated config invalid: %v", err)
	}
}

// TestRemainingExperimentsSmoke runs the heavyweight experiments at a tiny
// scale, checking structure only (values are validated at full scale by
// cmd/paperfigs and the figure-specific tests above).
func TestRemainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	c := NewContext(16)
	c.CBP5Traces = 2
	c.IPC1Traces = 2
	cases := map[string]int{ // id -> minimum total rows
		"fig4":      14,
		"fig6":      11,
		"fig7":      11,
		"fig8":      13,
		"fig13":     10,
		"fig14":     14,
		"fig19":     12,
		"fig20":     9,
		"fig21":     14,
		"ablations": 5,
		"regret":    9,
		"twolevel":  5,
	}
	for id, minRows := range cases {
		tables := Registry[id](c)
		rows := 0
		for _, tab := range tables {
			rows += len(tab.Rows)
			if len(tab.Header) < 2 {
				t.Errorf("%s: header too small", id)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Errorf("%s: ragged row %v", id, r)
				}
			}
		}
		if rows < minRows {
			t.Errorf("%s: %d rows, want >= %d", id, rows, minRows)
		}
	}
}

// TestHintQualFigOrdering pins the hintqual figure's acceptance property:
// the measured hint accuracy and the measured speedup over LRU degrade in
// the same order across profile freshness grades — same-input, cross-input,
// stale — for every application, so the audit's live score ranks hint
// tables the way their performance does.
func TestHintQualFigOrdering(t *testing.T) {
	tabs := HintQualFig(quickCtx())
	if len(tabs) != 1 {
		t.Fatalf("hintqual returned %d tables, want 1", len(tabs))
	}
	tab := tabs[0]
	if len(tab.Rows)%3 != 0 || len(tab.Rows) == 0 {
		t.Fatalf("hintqual rows = %d, want a positive multiple of 3", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 3 {
		same, cross, stale := tab.Rows[i], tab.Rows[i+1], tab.Rows[i+2]
		app := same[0]
		if same[1] != "same-input" || cross[1] != "cross-input" || stale[1] != "stale" {
			t.Fatalf("%s: grade order %q %q %q", app, same[1], cross[1], stale[1])
		}
		acc := func(r []string) float64 { return parsePct(t, r[3]) }
		spd := func(r []string) float64 { return parsePct(t, r[7]) }
		if !(acc(same) > acc(cross) && acc(cross) > acc(stale)) {
			t.Errorf("%s: accuracy not monotone: %.2f / %.2f / %.2f",
				app, acc(same), acc(cross), acc(stale))
		}
		if !(spd(same) > spd(cross) && spd(cross) > spd(stale)) {
			t.Errorf("%s: speedup not monotone: %.2f / %.2f / %.2f",
				app, spd(same), spd(cross), spd(stale))
		}
		if parsePct(t, same[2]) != 100.0 {
			t.Errorf("%s: same-input coverage %.2f%%, want 100%%", app, parsePct(t, same[2]))
		}
	}
}
