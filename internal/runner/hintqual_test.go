package runner

import (
	"bytes"
	"context"
	"testing"

	"thermometer/internal/telemetry"
)

// auditedGrid is testGrid with the hint-quality audit enabled on every spec
// that carries hints (the thermometer cells).
func auditedGrid(t testing.TB) []Spec {
	specs := testGrid(t)
	audited := 0
	for i := range specs {
		if specs[i].Hints {
			specs[i].HintQual = true
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("grid has no hinted specs to audit")
	}
	return specs
}

// TestHintQualObservationGolden pins the acceptance guarantee from two
// directions: an audited sweep renders byte-identically at widths 1 and 8,
// and stripping the audit artifacts (the spec flag, its key, the outcome
// summary) reproduces the unaudited sweep's JSON byte-for-byte — the audit
// adds data without disturbing a single simulated number.
func TestHintQualObservationGolden(t *testing.T) {
	render := func(specs []Spec, workers int) (string, []Result) {
		e := &Engine{Workers: workers}
		results := e.Sweep(context.Background(), specs)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String(), results
	}
	strip := func(results []Result) string {
		stripped := make([]Result, len(results))
		for i, r := range results {
			r.Spec.HintQual = false
			r.Key = ""
			if r.Outcome != nil && r.Outcome.HintQual != nil {
				o := *r.Outcome
				o.HintQual = nil
				r.Outcome = &o
			}
			stripped[i] = r
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, stripped); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	w1, r1 := render(auditedGrid(t), 1)
	w8, _ := render(auditedGrid(t), 8)
	if w1 != w8 {
		t.Errorf("audited sweep differs between widths 1 and 8:\n%s\nvs\n%s", head(w1), head(w8))
	}

	_, plain := render(testGrid(t), 1)
	if got, want := strip(r1), strip(plain); got != want {
		t.Errorf("audited sweep (audit stripped) differs from unaudited sweep:\n%s\nvs\n%s",
			head(got), head(want))
	}

	// The audit actually ran: every hinted cell carries a populated summary.
	for _, r := range r1 {
		if !r.Spec.HintQual {
			continue
		}
		hq := r.Outcome.HintQual
		if hq == nil || hq.Accesses == 0 || hq.Windows == 0 {
			t.Fatalf("audited cell %s/%s has empty summary: %+v", r.Spec.Policy, r.Spec.TraceName(), hq)
		}
		if hq.Accesses != r.Outcome.Accesses {
			t.Fatalf("audit scored %d accesses, outcome counted %d", hq.Accesses, r.Outcome.Accesses)
		}
	}
}

// TestHintQualSpecValidation pins the spec contract: the audit needs a hint
// table and a timing simulation.
func TestHintQualSpecValidation(t *testing.T) {
	if _, err := (Spec{App: "kafka", HintQual: true}).Normalized(); err == nil {
		t.Fatal("hintqual without hints accepted")
	}
	if _, err := (Spec{App: "kafka", Hints: true, HintQual: true, Mode: ModeReplay}).Normalized(); err == nil {
		t.Fatal("hintqual in replay mode accepted")
	}
	if _, err := (Spec{App: "kafka", Hints: true, HintQual: true}).Normalized(); err != nil {
		t.Fatalf("valid hintqual spec rejected: %v", err)
	}
}

// TestHintQualKeyStability pins that the new spec field is invisible to the
// cache identity of specs that don't use it — old cache entries stay valid.
func TestHintQualKeyStability(t *testing.T) {
	base := Spec{App: "kafka", Scale: 64, Policy: "thermometer", Hints: true}
	audited := base
	audited.HintQual = true
	if base.Key() == audited.Key() {
		t.Fatal("audited and unaudited specs share a cache key")
	}
	b, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("hintqual")) {
		t.Fatalf("hintqual leaks into unaudited canonical JSON: %s", b)
	}
}

// TestSharedCacheMetricsPublished pins the /metrics surface of the
// package-level trace cache: after a sweep through an engine with a
// registry, the counters and size gauge are present and the repeat sweep
// registers cache hits.
func TestSharedCacheMetricsPublished(t *testing.T) {
	m := telemetry.NewRegistry()
	e := &Engine{Workers: 2, Metrics: m}
	specs := []Spec{{App: "kafka", Scale: 64, Policy: "thermometer", Hints: true}}
	e.Sweep(context.Background(), specs)
	e.Sweep(context.Background(), specs)

	snap := m.Snapshot()
	for _, name := range []string{
		"runner_trace_cache_hits", "runner_trace_cache_misses", "runner_trace_cache_evictions",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not published", name)
		}
	}
	if _, ok := snap.Gauges["runner_trace_cache_size"]; !ok {
		t.Error("gauge runner_trace_cache_size not published")
	}
	// The cache is package-global, so absolute values depend on test
	// order; the second sweep's lookup guarantees at least one hit.
	if snap.Counters["runner_trace_cache_hits"] == 0 {
		t.Error("trace cache hits not counted")
	}
	if snap.Gauges["runner_trace_cache_size"] == 0 {
		t.Error("trace cache size gauge empty")
	}
}
