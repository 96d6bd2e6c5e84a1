package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"thermometer/internal/telemetry/span"
)

// fakeNanos is a deterministic injected clock for span tracers.
func fakeNanos() func() int64 {
	var mu sync.Mutex
	var t int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t += 1000
		return t
	}
}

// TestSpanObservationGolden pins the acceptance guarantee: a span-annotated,
// progress-observed sweep produces byte-identical output to an unobserved
// sweep at any pool width. Observation must be side-effect-free.
func TestSpanObservationGolden(t *testing.T) {
	specs := testGrid(t)
	sweep := func(workers int, observed bool) string {
		e := &Engine{Workers: workers}
		if !observed {
			return render(t, e.Sweep(context.Background(), specs))
		}
		e.Spans = span.New(fakeNanos(), 4096)
		return render(t, e.SweepProgress(context.Background(), specs, func(Progress) {}))
	}
	plain := sweep(1, false)
	for _, workers := range []int{1, 8} {
		if got := sweep(workers, true); got != plain {
			t.Errorf("observed sweep at width %d differs from unobserved output:\n%s\nvs\n%s",
				workers, head(got), head(plain))
		}
	}
}

// TestSpanDeterminism pins the repeat-run tracing guarantee: a serial sweep
// traced twice under the same injected clock exports byte-identical Chrome
// traces, and at any width the recorded span identities are the same set.
func TestSpanDeterminism(t *testing.T) {
	specs := testGrid(t)[:6]
	trace := func(workers int) *span.Tracer {
		e := &Engine{Workers: workers, Spans: span.New(fakeNanos(), 4096)}
		e.Sweep(context.Background(), specs)
		return e.Spans
	}
	var first, second bytes.Buffer
	if err := trace(1).WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	if err := trace(1).WriteChromeTrace(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("serial repeat runs exported different Chrome traces")
	}

	ids := func(tr *span.Tracer) []string {
		var out []string
		for _, s := range tr.Spans() {
			out = append(out, fmt.Sprintf("%s/%s/%s/%s", s.Trace, s.ID, s.Parent, s.Name))
		}
		sort.Strings(out)
		return out
	}
	serial, parallel := ids(trace(1)), ids(trace(8))
	if len(serial) == 0 {
		t.Fatal("no spans recorded")
	}
	if fmt.Sprint(serial) != fmt.Sprint(parallel) {
		t.Fatalf("span identity set differs between widths:\n%v\nvs\n%v", serial, parallel)
	}
}

// TestSpanStages checks every lifecycle stage lands in the trace: job root,
// cache lookup (miss then hit), trace load, hint load, simulate, aggregate —
// with parents chaining to the job root derived from the spec key.
func TestSpanStages(t *testing.T) {
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 1, Cache: cache, Spans: span.New(fakeNanos(), 256)}
	spec := Spec{App: "kafka", Scale: 64, Policy: "thermometer", Hints: true}
	if r := e.Run(context.Background(), spec); r.Err != "" {
		t.Fatal(r.Err)
	}
	if r := e.Run(context.Background(), spec); !r.Cached {
		t.Fatal("second run not cached")
	}

	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.Key()
	root := span.Derive(key, "job")
	byName := map[string][]span.Span{}
	for _, s := range e.Spans.Spans() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{"trace_load", "hint_load", "simulate", "aggregate"} {
		ss := byName[name]
		if len(ss) != 1 {
			t.Fatalf("stage %q recorded %d times, want 1 (fresh run only)", name, len(ss))
		}
		if ss[0].Parent != root || ss[0].ID != span.Derive(key, name) || ss[0].Trace != span.Derive(key) {
			t.Fatalf("stage %q has wrong identity: %+v", name, ss[0])
		}
	}
	lookups := byName["cache"]
	if len(lookups) != 2 || lookups[0].Detail != "miss" || lookups[1].Detail != "hit" {
		t.Fatalf("cache lookups: %+v", lookups)
	}
	jobs := byName["job"]
	if len(jobs) != 2 || jobs[0].Detail != "done" || jobs[1].Detail != "cached" {
		t.Fatalf("job roots: %+v", jobs)
	}
	if jobs[0].Parent != 0 {
		t.Fatal("job root has a parent")
	}
}

// TestSweepProgressNotifications checks the callback protocol: exactly one
// started and one terminal notification per job, terminal states mirroring
// the results, cache hits flagged.
func TestSweepProgressNotifications(t *testing.T) {
	cache, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 4, Cache: cache}
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
	if first[0][1].State != ProgressDone || first[0][1].Accesses == 0 {
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
