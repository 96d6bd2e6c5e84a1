package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSignK pins the interval's order statistics against the binomial
// table: n = 10 reads the 2nd and 9th ratios, and below 6 pairs no pair of
// order statistics reaches 95%.
func TestSignK(t *testing.T) {
	for n, want := range map[int]int{1: 0, 5: 0, 6: 1, 8: 1, 9: 2, 10: 2, 20: 6} {
		if got := signK(n); got != want {
			t.Errorf("signK(%d) = %d, want %d", n, got, want)
		}
	}
}

var (
	minstr = metric{Name: "host_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25}
	p50    = metric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25}
)

// ones returns n copies of v.
func ones(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TestCompareOrientation checks that a ratio above 1 means worse whichever
// way the metric improves, and that the interval is the 2nd and 9th of ten
// sorted ratios.
func TestCompareOrientation(t *testing.T) {
	base := ones(10, 100)
	// Head throughput 100/r for r = 2.0, 1.9, ..., 1.1: ratios 1.1..2.0.
	head := make([]float64, 10)
	for i := range head {
		head[i] = 100 / (2 - 0.1*float64(i))
	}
	c := compare(minstr, base, head)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(c.ratio, 1.55) || !near(c.lo, 1.2) || !near(c.hi, 1.9) {
		t.Errorf("higher-is-better ratio %.3f [%.3f, %.3f], want 1.550 [1.200, 1.900]", c.ratio, c.lo, c.hi)
	}
	if c.wins != 0 || c.verdict != "FAIL" {
		t.Errorf("halved throughput: wins %d verdict %q, want 0 and FAIL", c.wins, c.verdict)
	}

	// The same slowdown as latency: head/base, and only the gated metric
	// can FAIL; the others read "worse".
	c = compare(p50, base, ones(10, 200))
	if c.ratio != 2 || c.verdict != "worse" {
		t.Errorf("doubled latency: ratio %.3f verdict %q, want 2 and worse", c.ratio, c.verdict)
	}
	// Faster head: every pair won, ratio below 1.
	c = compare(p50, base, ones(10, 50))
	if c.ratio != 0.5 || c.wins != 10 || c.verdict != "ok" {
		t.Errorf("halved latency: ratio %.3f wins %d verdict %q, want 0.5, 10 and ok", c.ratio, c.wins, c.verdict)
	}
}

// TestCompareVerdicts covers the gated metric's branches: beyond the bound
// with the interval wholly above 1 fails; a median beyond the bound whose
// interval reaches 1 is unresolved, as is an interval straddling the bound.
func TestCompareVerdicts(t *testing.T) {
	base := ones(10, 100)
	for _, tc := range []struct {
		name   string
		ratios []float64 // oriented ratios, base/head
		want   string
	}{
		{"clearly slower", []float64{1.9, 2, 2, 2, 2, 2, 2, 2, 2, 2.1}, "FAIL"},
		{"median beyond, interval reaches 1", []float64{0.9, 0.95, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 1.5, 1.6}, "unresolved"},
		{"interval straddles the bound", []float64{0.9, 1, 1, 1, 1, 1, 1, 1.1, 1.4, 1.5}, "unresolved"},
		{"noise", []float64{0.9, 0.95, 1, 1, 1, 1, 1, 1, 1.05, 1.1}, "ok"},
	} {
		head := make([]float64, 10)
		for i, r := range tc.ratios {
			head[i] = 100 / r
		}
		if got := compare(minstr, base, head).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// fakeRuns answers measure's runs from canned results and records the
// order in which the sides ran.
type fakeRuns struct {
	res   [2]result
	err   [2]error
	order []string
}

func (f *fakeRuns) do(pair, side int) (result, error) {
	f.order = append(f.order, sides[side])
	return f.res[side], f.err[side]
}

func good(minstr float64) result {
	return result{Correct: true, Attempted: 10, Metrics: map[string]struct{ Value float64 }{
		"host_minstr_per_s": {minstr},
	}}
}

func TestMeasureAlternates(t *testing.T) {
	f := &fakeRuns{res: [2]result{good(60), good(60)}}
	runs, _, err := measure(3, f.do)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs[0]) != 3 || len(runs[1]) != 3 {
		t.Fatalf("got %d base and %d head runs, want 3 each", len(runs[0]), len(runs[1]))
	}
	if got := strings.Join(f.order, ","); got != "base,head,head,base,base,head" {
		t.Errorf("run order %s, want the base first in odd pairs", got)
	}
}

// TestMeasureFailedRuns covers the exit statuses: a base run that reads
// incorrect exits 2 with "base failed"; a head run that reads incorrect or
// exits non-zero exits 1.
func TestMeasureFailedRuns(t *testing.T) {
	bad := good(60)
	bad.Correct = false
	for _, tc := range []struct {
		name string
		f    *fakeRuns
		code int
		msg  string
	}{
		{"incorrect base", &fakeRuns{res: [2]result{bad, good(60)}}, 2, "base failed in pair 1"},
		{"incorrect head", &fakeRuns{res: [2]result{good(60), bad}}, 1, "head failed in pair 1"},
		{"head exits non-zero", &fakeRuns{res: [2]result{good(60), {}}, err: [2]error{nil, errors.New("exit status 1")}}, 1, "exit status 1"},
	} {
		_, code, err := measure(10, tc.f.do)
		if code != tc.code || err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: got %v, want exit %d with %q", tc.name, err, tc.code, tc.msg)
		}
	}
}

func TestGate(t *testing.T) {
	var base, same, slow []result
	for i := 0; i < 10; i++ {
		base, same, slow = append(base, good(60)), append(same, good(60)), append(slow, good(30))
	}
	var out bytes.Buffer
	if fails := gate(&out, "timing-grid", []metric{minstr}, [2][]result{base, same}); len(fails) != 0 {
		t.Errorf("A vs A failed the gate: %v", fails)
	}
	if !strings.Contains(out.String(), "| timing-grid | host_minstr_per_s (Minstr/s) | 60 (0) | 60 | 1.000 [1.000, 1.000] | 0/10 | ok |") {
		t.Errorf("unexpected row:\n%s", out.String())
	}
	if fails := gate(&out, "timing-grid", []metric{minstr}, [2][]result{base, slow}); len(fails) != 1 || !strings.Contains(fails[0], "2.000x worse") {
		t.Errorf("halved throughput: fails %v, want one", fails)
	}

	// A head that fails a larger share of ops fails even when every run
	// reads correct.
	lossy := slices.Clone(same)
	lossy[3].Failed = 1
	if fails := gate(&out, "timing-grid", []metric{minstr}, [2][]result{base, lossy}); len(fails) != 1 || !strings.Contains(fails[0], "failed 1% of ops") {
		t.Errorf("lossy head: fails %v, want the failed-ops share", fails)
	}
}

func TestParseLast(t *testing.T) {
	out := "failed op: kafka/lru: boom\n" +
		`{"correct":false,"attempted":91,"failed":1,"metrics":{"host_minstr_per_s":{"value":61.5,"unit":"Minstr/s"}}}` + "\n"
	r, err := parseLast([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 91 || r.Failed != 1 || r.Metrics["host_minstr_per_s"].Value != 61.5 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := parseLast([]byte("{\"correct\":true}\nperfbench: killed\n")); err == nil {
		t.Error("a last line that is not JSON parsed")
	}
}

// TestSameBenchmark checks that the comparison covers BENCHMARK.json and
// perfbench/ and nothing else.
func TestSameBenchmark(t *testing.T) {
	tree := func(runSh, other string) string {
		dir := t.TempDir()
		for path, body := range map[string]string{
			"BENCHMARK.json":    `{"command": ["bash", "perfbench/run.sh"]}`,
			"perfbench/run.sh":  runSh,
			"perfbench/main.go": "package main\n",
			"cmd/x/main.go":     other,
		} {
			p := filepath.Join(dir, filepath.FromSlash(path))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	a := tree("exec perfbench", "package main")
	for _, tc := range []struct {
		name string
		b    string
		want bool
	}{
		{"change outside the benchmark", tree("exec perfbench", "package main // changed"), true},
		{"change to perfbench/run.sh", tree("exec perfbench --fast", "package main"), false},
	} {
		if same, err := sameBenchmark([2]string{a, tc.b}); err != nil || same != tc.want {
			t.Errorf("%s: same %v, err %v; want %v", tc.name, same, err, tc.want)
		}
	}
}

func TestRejectsTooFewPairs(t *testing.T) {
	code, err := run([]string{"-base", "HEAD", "-pairs", "5"}, &bytes.Buffer{})
	if code != 1 || err == nil || !strings.Contains(err.Error(), "at least 6") {
		t.Errorf("-pairs 5: got %v", err)
	}
}
