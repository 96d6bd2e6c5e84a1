package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTailPercentile pins the op_ms_p90 rule: the 90th percentile once ten
// samples lie beyond it, otherwise the highest rank with ten beyond, never
// below the median.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		value float64 // samples are 1..n, so the value is the rank
		pct   float64
	}{
		{n: 100, value: 90, pct: 90},
		{n: 200, value: 180, pct: 90},
		{n: 105, value: 95, pct: 100 * 95.0 / 105},
		{n: 91, value: 81, pct: 100 * 81.0 / 91},
		{n: 15, value: 8, pct: 100 * 8.0 / 15},
		{n: 1, value: 1, pct: 100},
	} {
		xs := seq(c.n)
		v, p := tailPercentile(xs)
		if v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("n=%d: got value %v at p%.2f, want %v at p%.2f", c.n, v, p, c.value, c.pct)
		}
		if beyond := c.n - int(v); c.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", c.n, beyond)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("n=%d: input reordered", c.n)
		}
	}
	if v, p := tailPercentile(nil); v != 0 || p != 0 {
		t.Errorf("empty: got %v, %v", v, p)
	}
}

func TestMinstrPerSec(t *testing.T) {
	if got := minstrPerSec(2_500_000, 500*time.Millisecond); got != 5 {
		t.Errorf("got %v, want 5", got)
	}
	if got := minstrPerSec(1, 0); got != 0 {
		t.Errorf("zero time: got %v", got)
	}
}

// TestInprocEndToEnd checks throughput aggregation: total instructions over
// summed op time (not wall time), specs over the section's wall time.
func TestInprocEndToEnd(t *testing.T) {
	e := &env{out: io.Discard}
	rep := newReport()
	samples := []opSample{
		{dur: 100 * time.Millisecond, instr: 1_000_000},
		{dur: 300 * time.Millisecond, instr: 3_000_000},
		{dur: 600 * time.Millisecond, instr: 1_000_000},
	}
	if err := inprocEndToEnd(e, rep, samples, 2*time.Second, 1.5); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"host_minstr_per_s": 5, // 5M instructions over 1s of op time
		"specs_per_s":       1.5,
		"op_ms_p50":         300,
		"op_ms_p90":         300, // too few ops for ten beyond: the median's rank
		"setup_s":           1.5,
	}
	for k, v := range want {
		if got := rep.metrics[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if rep.metrics["rss_peak_mib"] <= 0 {
		t.Errorf("rss_peak_mib = %v", rep.metrics["rss_peak_mib"])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 40, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "c", Start: 12, End: 18, Parent: 1},  // grandchild: not the op's child
		{Name: "open", Start: 50, End: -1, Parent: 0},
	}
	lt := layerTimes(spans)
	if got := lt["op"]; got.Count != 1 || got.Busy != 100 || got.Self != 60 {
		t.Errorf("op = %+v, want busy 100, self 60", got)
	}
	if got := lt["a"]; got.Count != 2 || got.Busy != 40 || got.Self != 34 {
		t.Errorf("a = %+v, want 2 spans, busy 40, self 34", got)
	}
	if _, ok := lt["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.record("y", time.Now(), time.Now(), -1, 0)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded: id %d", id)
	}
	tr = newTracer()
	tr.end(tr.begin("x", -1, 0))
	if s := tr.snapshot(); len(s) != 1 || s[0].End < s[0].Start {
		t.Errorf("spans = %+v", s)
	}
}

func TestVmHWM(t *testing.T) {
	const status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t  558080 kB\nVmRSS:\t 1 kB\n"
	if got, err := vmHWMMiB(strings.NewReader(status)); err != nil || got != 545 {
		t.Errorf("got %v, %v; want 545 MiB", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\t-3 kB\n", "VmHWM:\n"} {
		if _, err := vmHWMMiB(strings.NewReader(bad)); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
	if got, err := peakRSSMiB("self"); err != nil || got <= 0 {
		t.Errorf("own VmHWM: %v, %v", got, err)
	}
}

// TestTwins: a traced run's leading ops run untraced too, once to warm up
// and once alternately before and after, with the tracer detached; the
// overhead is the ratio of the summed times.
func TestTwins(t *testing.T) {
	e := &env{out: io.Discard, tr: newTracer()}
	var tw twins
	var calls []string
	for i := 0; i < twinOps+2; i++ {
		_, err := tw.pair(e, i, func() (opSample, error) {
			calls = append(calls, "traced")
			return opSample{dur: 3 * time.Millisecond}, nil
		}, func() (opSample, error) {
			if e.traced() {
				t.Error("the untraced twin ran with the tracer attached")
			}
			calls = append(calls, "untraced")
			return opSample{dur: 2 * time.Millisecond}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Ops 0 and 1, each after an unmeasured warm run.
	want := []string{"untraced", "untraced", "traced", "untraced", "traced", "untraced"}
	if !slices.Equal(calls[:6], want) || len(calls) != 3*twinOps+2 {
		t.Errorf("calls = %v", calls)
	}
	if len(tw.traced) != twinOps || len(tw.untraced) != twinOps || !e.traced() {
		t.Errorf("%d traced, %d untraced twins; tracer kept: %v", len(tw.traced), len(tw.untraced), e.traced())
	}
	if got := tw.overheadPct(); math.Abs(got-50) > 1e-9 {
		t.Errorf("overheadPct = %v, want 50", got)
	}

	// An untraced run has no twins; a failing twin fails its op.
	var none twins
	if _, err := none.pair(&env{}, 0, func() (opSample, error) { return opSample{}, nil }, nil); err != nil || none.overheadPct() != 0 {
		t.Errorf("untraced run: err %v, overhead %v", err, none.overheadPct())
	}
	_, err := none.pair(e, 0, func() (opSample, error) { return opSample{}, nil }, func() (opSample, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("a panicking twin returned %v", err)
	}
}

// TestFailedOpAccounting: panics and errors are failed ops, an erroring op
// that completed still contributes its time, a cross-cell check fails a
// cell once, and any failure or failed check makes the run incorrect.
func TestFailedOpAccounting(t *testing.T) {
	e := &env{out: io.Discard}
	rep := newReport()
	samples, _ := closedLoop(e, rep, 5, func(i int) (opSample, error) {
		switch i {
		case 2:
			panic("boom")
		case 3:
			return opSample{dur: time.Millisecond}, errors.New("check failed")
		}
		return opSample{dur: time.Millisecond}, nil
	})
	if rep.attempted != 5 || rep.failed != 2 || len(samples) != 4 || len(rep.errs) != 2 {
		t.Fatalf("attempted %d failed %d samples %d errs %v", rep.attempted, rep.failed, len(samples), rep.errs)
	}
	if !strings.Contains(rep.errs[0], "panic: boom") {
		t.Errorf("errs[0] = %q", rep.errs[0])
	}
	c := &simCell{}
	failCell(rep, c, errors.New("x"))
	failCell(rep, c, errors.New("x again"))
	if rep.failed != 3 {
		t.Errorf("failed = %d after failing one cell twice, want 3", rep.failed)
	}
	if rep.line(false).Correct {
		t.Error("a run with failed ops reads correct")
	}
	ok := newReport()
	ok.add(nil)
	if !ok.line(false).Correct {
		t.Error("a clean run reads incorrect")
	}
	ok.check(false, "model output %d", 1)
	if ok.line(false).Correct {
		t.Error("a failed run-level check reads correct")
	}
	if newReport().line(false).Correct {
		t.Error("a run without ops reads correct")
	}
}

// TestMetricCatalogMatchesBenchmarkJSON keeps the metric lists printed by
// the benchmark and the ones BENCHMARK.json declares identical.
func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, layerMetrics)
	line := newReport().line(true)
	if len(line.Metrics) != len(layerMetrics) {
		t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(layerMetrics))
	}
}

// TestStratifiedOrder: the order is a permutation, and every prefix holds
// each stratum within one item of an equal share.
func TestStratifiedOrder(t *testing.T) {
	for _, c := range []struct{ apps, kinds int }{{13, 7}, {13, 5}, {4, 1}} {
		order := gridOrder(3, 1, c.apps, c.kinds)
		seen := make(map[int]bool)
		counts := make([]int, c.kinds)
		for i, cell := range order {
			if seen[cell] || cell < 0 || cell >= c.apps*c.kinds {
				t.Fatalf("%v: cell %d repeated or out of range", c, cell)
			}
			seen[cell] = true
			counts[cell%c.kinds]++
			lo, hi := counts[0], counts[0]
			for _, n := range counts {
				lo, hi = min(lo, n), max(hi, n)
			}
			if hi-lo > 1 {
				t.Fatalf("%v: prefix %d has stratum counts %v", c, i+1, counts)
			}
		}
		if len(order) != c.apps*c.kinds {
			t.Errorf("%v: %d cells, want %d", c, len(order), c.apps*c.kinds)
		}
	}
	a, b := suiteOrder(1, 2), suiteOrder(1, 2)
	if !slices.Equal(a, b) || len(a) != warmTrace || slices.Contains(a, warmTrace) {
		t.Errorf("suiteOrder: not a repeatable order of the %d timed traces", warmTrace)
	}
}
