package runner

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"thermometer/internal/telemetry"
)

// testGrid is a small policy × workload grid at a short trace scale, in
// normalized form; the thermometer cells carry hints.
func testGrid(t testing.TB) []Spec {
	t.Helper()
	var specs []Spec
	for _, b := range []Spec{
		{App: "kafka", Scale: 64},
		{App: "python", Scale: 64},
		{Suite: SuiteCBP5, Index: 0, Scale: 64},
		{Suite: SuiteIPC1, Index: 1, Scale: 64},
	} {
		for _, p := range []string{"lru", "srrip", "thermometer"} {
			b.Policy, b.Hints = p, p == "thermometer"
			s, err := b.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// render encodes sweep results as indented JSON, the form whose
// byte-identity the golden tests pin.
func render(t testing.TB, results []Result) string {
	t.Helper()
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepGoldenDeterminism is the golden parallel-vs-serial test: the
// same sweep at pool width 1 and 8 must produce byte-identical JSON
// (fresh engines on both sides, so cache state matches too).
func TestSweepGoldenDeterminism(t *testing.T) {
	specs := testGrid(t)
	sweep := func(workers int) string {
		return render(t, (&Engine{Workers: workers}).Sweep(context.Background(), specs))
	}
	j1, j8 := sweep(1), sweep(8)
	if j1 != j8 {
		t.Errorf("JSON output differs between -parallel=1 and -parallel=8:\nserial:\n%s\nparallel:\n%s", head(j1), head(j8))
	}
	if !strings.Contains(j1, "kafka") || strings.Contains(j1, "panic") {
		t.Fatalf("suspicious sweep output:\n%s", head(j1))
	}
}

func head(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
}

func TestSweepResultsInSubmissionOrder(t *testing.T) {
	specs := testGrid(t)
	e := &Engine{Workers: 8}
	results := e.Sweep(context.Background(), specs)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Spec.Policy != specs[i].Policy || r.Spec.App != specs[i].App ||
			r.Spec.Suite != specs[i].Suite || r.Spec.Index != specs[i].Index {
			t.Fatalf("result %d out of order: spec %+v vs %+v", i, r.Spec, specs[i])
		}
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
		if r.Outcome == nil || r.Outcome.Accesses == 0 {
			t.Fatalf("job %d has empty outcome", i)
		}
	}
}

func TestSweepCacheHits(t *testing.T) {
	cache, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e := &Engine{Workers: 4, Cache: cache, Metrics: reg}
	specs := testGrid(t)[:4]

	first := e.Sweep(context.Background(), specs)
	second := e.Sweep(context.Background(), specs)
	for i := range second {
		if !second[i].Cached {
			t.Errorf("repeat job %d not served from cache", i)
		}
		if first[i].Cached {
			t.Errorf("first run of job %d claims cached", i)
		}
		// The cached outcome must be indistinguishable from the fresh one.
		if *first[i].Outcome != *second[i].Outcome {
			t.Errorf("cached outcome differs from fresh outcome for job %d", i)
		}
	}
	if got := reg.Counter("runner_cache_hits").Value(); got != uint64(len(specs)) {
		t.Errorf("runner_cache_hits = %d, want %d", got, len(specs))
	}
	if got := reg.Counter("runner_jobs_total").Value(); got != 2*uint64(len(specs)) {
		t.Errorf("runner_jobs_total = %d, want %d", got, 2*len(specs))
	}
}

func TestSweepPanicIsolation(t *testing.T) {
	e := &Engine{Workers: 4}
	e.execHook = func(s Spec) (*Outcome, error) {
		switch s.App {
		case "kafka":
			panic("synthetic failure")
		case "mysql":
			return nil, errors.New("plain failure")
		}
		return &Outcome{Trace: s.App}, nil
	}
	specs := []Spec{{App: "python"}, {App: "kafka"}, {App: "mysql"}, {App: "tomcat"}}
	results := e.Sweep(context.Background(), specs)
	if results[0].Err != "" || results[3].Err != "" {
		t.Fatalf("healthy jobs failed: %+v", results)
	}
	if !strings.Contains(results[1].Err, "job panicked: synthetic failure") {
		t.Fatalf("panic not converted to failed result: %q", results[1].Err)
	}
	if results[2].Err != "plain failure" {
		t.Fatalf("error not propagated: %q", results[2].Err)
	}
	if results[1].Outcome != nil {
		t.Fatal("failed job carries an outcome")
	}
}

func TestSweepInvalidSpec(t *testing.T) {
	e := &Engine{Workers: 1}
	results := e.Sweep(context.Background(), []Spec{{App: "kafka", Scale: 64, Mode: ModeReplay}, {App: "nosuchapp"}})
	if results[0].Err != "" {
		t.Fatalf("valid replay job failed: %s", results[0].Err)
	}
	if results[0].Outcome.Cycles != 0 {
		t.Fatal("replay mode reported cycles")
	}
	if !strings.Contains(results[1].Err, "invalid spec") || results[1].Key != "" {
		t.Fatalf("invalid spec not rejected: %+v", results[1])
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the sweep starts: every job must fail fast
	e := &Engine{Workers: 4}
	results := e.Sweep(ctx, testGrid(t))
	for i, r := range results {
		if !strings.Contains(r.Err, "canceled") {
			t.Fatalf("job %d ran under a canceled context: %+v", i, r)
		}
	}
}

func TestEngineLatencyHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	var fake int64
	e := &Engine{Workers: 1, Metrics: reg, NowNanos: func() int64 {
		fake += 5_000_000 // 5ms per reading
		return fake
	}}
	e.execHook = func(s Spec) (*Outcome, error) { return &Outcome{Trace: s.App}, nil }
	e.Sweep(context.Background(), []Spec{{App: "kafka"}, {App: "mysql"}})
	h := reg.Histogram("runner_job_latency_us")
	if h.Count() != 2 {
		t.Fatalf("latency observations = %d, want 2", h.Count())
	}
	// Outcomes must not embed the injected clock anywhere: latency is
	// telemetry-only, keeping cached and fresh results interchangeable.
	r := e.Run(context.Background(), Spec{App: "kafka"})
	if r.Err != "" || r.Outcome == nil {
		t.Fatalf("run failed: %+v", r)
	}
}
