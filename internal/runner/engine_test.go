package runner

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
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
	reg := telemetry.NewRegistry()
	e := &Engine{Workers: 4, Cache: NewCache(64), Metrics: reg}
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

// TestSweepProgressNotifications checks the callback protocol: exactly one
// started and one terminal notification per job, terminal states mirroring
// the results, cache hits flagged.
func TestSweepProgressNotifications(t *testing.T) {
	e := &Engine{Workers: 4, Cache: NewCache(64)}
	specs := []Spec{
		{App: "kafka", Scale: 64, Mode: ModeReplay},
		{App: "nosuchapp"}, // invalid
		{App: "python", Scale: 64, Mode: ModeReplay},
	}
	collect := func() map[int][]Progress {
		var mu sync.Mutex
		got := map[int][]Progress{}
		e.SweepProgress(context.Background(), specs, func(p Progress) {
			mu.Lock()
			got[p.Index] = append(got[p.Index], p)
			mu.Unlock()
		})
		return got
	}

	first := collect()
	for i := range specs {
		evs := first[i]
		if len(evs) != 2 || evs[0].State != ProgressStarted {
			t.Fatalf("job %d events: %+v", i, evs)
		}
	}
	if first[0][1].State != ProgressDone || first[0][1].Cached || first[0][1].Err != "" {
		t.Fatalf("job 0 terminal: %+v", first[0][1])
	}
	if first[1][1].State != ProgressInvalid || first[1][1].Err == "" {
		t.Fatalf("job 1 terminal: %+v", first[1][1])
	}

	second := collect()
	if !second[0][1].Cached || second[0][1].State != ProgressDone {
		t.Fatalf("repeat job 0 not reported cached: %+v", second[0][1])
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var mu sync.Mutex
	var canceled int
	e.SweepProgress(ctx, specs[:1], func(p Progress) {
		mu.Lock()
		if p.State == ProgressCanceled {
			canceled++
		}
		mu.Unlock()
	})
	if canceled != 1 {
		t.Fatalf("canceled notifications = %d, want 1", canceled)
	}
}

// TestProgressStateIsExplicit pins that terminal classification comes from
// the recorded job state, not from re-parsing Result.Err: a simulation
// failure whose message happens to start with "canceled" or "invalid spec"
// must still be reported as failed.
func TestProgressStateIsExplicit(t *testing.T) {
	e := &Engine{Workers: 1}
	e.execHook = func(Spec) (*Outcome, error) {
		return nil, errors.New("canceled upstream: invalid spec payload from backend")
	}
	var mu sync.Mutex
	var terminal []Progress
	e.SweepProgress(context.Background(), []Spec{{App: "kafka", Scale: 64, Mode: ModeReplay}},
		func(p Progress) {
			mu.Lock()
			if p.State != ProgressStarted {
				terminal = append(terminal, p)
			}
			mu.Unlock()
		})
	if len(terminal) != 1 || terminal[0].State != ProgressFailed {
		t.Fatalf("misleading error text misclassified: %+v", terminal)
	}
}
