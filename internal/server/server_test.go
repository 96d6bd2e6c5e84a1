package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/telemetry"
)

// fakeRunner completes sweeps instantly unless gate is set, in which case
// every sweep blocks until the gate closes or the context cancels. It sends
// no progress notifications.
type fakeRunner struct {
	mu     sync.Mutex
	sweeps int
	gate   chan struct{}
}

func (f *fakeRunner) SweepProgress(ctx context.Context, specs []runner.Spec, _ func(runner.Progress)) []runner.Result {
	f.mu.Lock()
	f.sweeps++
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	results := make([]runner.Result, len(specs))
	for i, sp := range specs {
		results[i] = runner.Result{Spec: sp, Key: sp.Key()}
		if ctx.Err() != nil {
			results[i].Err = "canceled: " + ctx.Err().Error()
		} else {
			results[i].Outcome = &runner.Outcome{Trace: sp.TraceName(), Accesses: 1}
		}
	}
	return results
}

// fixedClock is a deterministic envelope clock.
func fixedClock() func() time.Time {
	t0 := time.Date(2022, 6, 18, 0, 0, 0, 0, time.UTC) // ISCA'22
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t0 = t0.Add(time.Second)
		return t0
	}
}

func newTestServer(t *testing.T, fr SweepRunner, opts Options) *Server {
	t.Helper()
	opts.Clock = fixedClock()
	s := New(fr, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// waitState polls until the job reaches state (the dispatcher is async).
func waitState(t *testing.T, s *Server, id, state string) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Job(id); ok && j.State == state {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := s.Job(id)
	t.Fatalf("job %s never reached %s (now %+v)", id, state, j)
	return nil
}

func TestSubmitRunGet(t *testing.T) {
	s := newTestServer(t, &fakeRunner{}, Options{})
	h := s.Handler()

	w := post(t, h, `{"specs": [{"app": "kafka"}, {"app": "mysql", "policy": "srrip"}]}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var job Job
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" || job.SubmittedAt.IsZero() {
		t.Fatalf("bad envelope: %+v", job)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/job-000001" {
		t.Fatalf("location %q", loc)
	}

	done := waitState(t, s, job.ID, StateDone)
	if done.StartedAt == nil || done.FinishedAt == nil || done.Failed != 0 {
		t.Fatalf("finished envelope incomplete: %+v", done)
	}
	// Specs were normalized at submission: defaults explicit.
	if done.Specs[0].Policy != "lru" || done.Specs[0].BTBEntries != 8192 {
		t.Fatalf("specs not normalized: %+v", done.Specs[0])
	}

	w = get(t, h, "/v1/jobs/"+job.ID)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"results"`) {
		t.Fatalf("get = %d, body %s", w.Code, w.Body)
	}
	// Bare-array submission works too.
	if w := post(t, h, `[{"app": "python"}]`); w.Code != http.StatusAccepted {
		t.Fatalf("bare-array submit = %d, body %s", w.Code, w.Body)
	}
}

func TestListJobs(t *testing.T) {
	s := newTestServer(t, &fakeRunner{}, Options{})
	h := s.Handler()
	for _, app := range []string{"kafka", "mysql", "python"} {
		if w := post(t, h, `[{"app": "`+app+`"}]`); w.Code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", app, w.Code)
		}
	}
	waitState(t, s, "job-000003", StateDone)
	var list []jobSummary
	if err := json.Unmarshal(get(t, h, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID != "job-000001" || list[2].ID != "job-000003" {
		t.Fatalf("list wrong: %+v", list)
	}
}

func TestMalformedSubmissions(t *testing.T) {
	s := newTestServer(t, &fakeRunner{}, Options{})
	h := s.Handler()
	cases := []struct {
		body string
		want string // substring of the error message
	}{
		{``, "empty body"},
		{`{"specs": []}`, "at least one spec"},
		{`not json`, "malformed specs"},
		{`[{"app": "kafka", "policy": "belady"}]`, `spec[0]: unknown policy "belady"`},
		{`[{"app": "kafka"}, {"app": "atlantis"}]`, `spec[1]: unknown app "atlantis"`},
		{`[{"app": "kafka", "polciy": "lru"}]`, "unknown field"},
		{`{"specs": [{"suite": "cbp5", "index": 100000}]}`, "out of range"},
	}
	for _, c := range cases {
		w := post(t, h, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", c.body, w.Code)
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("body %q: error %q, want substring %q", c.body, e.Error, c.want)
		}
	}
	if w := get(t, h, "/v1/jobs/job-999999"); w.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", w.Code)
	}
	req := httptest.NewRequest("DELETE", "/v1/jobs", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", w.Code)
	}
}

func TestBackpressure429(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	reg := telemetry.NewRegistry()
	s := newTestServer(t, fr, Options{QueueDepth: 2, Metrics: reg})
	h := s.Handler()

	// First job is dequeued and starts running (blocked on the gate); the
	// next two fill the depth-2 queue; the fourth must bounce with 429.
	if w := post(t, h, `[{"app": "kafka"}]`); w.Code != http.StatusAccepted {
		t.Fatalf("submit 0 = %d, body %s", w.Code, w.Body)
	}
	waitState(t, s, "job-000001", StateRunning)
	for i := 1; i < 3; i++ {
		if w := post(t, h, `[{"app": "kafka"}]`); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, body %s", i, w.Code, w.Body)
		}
	}
	w := post(t, h, `[{"app": "kafka"}]`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queue overflow = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if reg.Counter("thermod_jobs_rejected_queue_full").Value() == 0 {
		t.Error("rejection not counted")
	}

	close(fr.gate) // release; Cleanup's Shutdown drains the rest
}

func TestGracefulDrain(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s := newTestServer(t, fr, Options{})
	h := s.Handler()

	post(t, h, `[{"app": "kafka"}]`)             // will run, blocked on gate
	post(t, h, `[{"app": "mysql", "scale": 4}]`) // queued behind it
	waitState(t, s, "job-000001", StateRunning)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Draining flips synchronously-ish; poll then verify 503.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w := post(t, h, `[{"app": "python"}]`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503 (body %s)", w.Code, w.Body)
	}

	close(fr.gate) // in-flight job finishes; queued job runs and finishes
	if err := <-shutdownErr; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		j, _ := s.Job(id)
		if j.State != StateDone {
			t.Errorf("%s = %s after drain, want done", id, j.State)
		}
	}
}

func TestDrainDeadlineCancels(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})} // never closed: job hangs until ctx cancel
	s := New(fr, Options{Clock: fixedClock()})
	h := s.Handler()
	post(t, h, `[{"app": "kafka"}]`)
	waitState(t, s, "job-000001", StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	j, _ := s.Job("job-000001")
	if j.State != StateCanceled {
		t.Fatalf("hung job state = %s, want canceled", j.State)
	}
	if len(j.Results) != 1 || !strings.Contains(j.Results[0].Err, "canceled") {
		t.Fatalf("canceled job results: %+v", j.Results)
	}
}

// TestEngineIntegration runs the real engine under the server once: a tiny
// sweep through HTTP, results retrieved with outcomes attached.
func TestEngineIntegration(t *testing.T) {
	eng := &runner.Engine{Workers: 2}
	s := newTestServer(t, eng, Options{})
	h := s.Handler()
	w := post(t, h, `[{"app": "python", "scale": 64}, {"app": "python", "scale": 64, "policy": "srrip"}]`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", w.Code, w.Body)
	}
	j := waitState(t, s, "job-000001", StateDone)
	if j.Failed != 0 || len(j.Results) != 2 {
		t.Fatalf("integration job: %+v", j)
	}
	for _, r := range j.Results {
		if r.Outcome == nil || r.Outcome.IPC <= 0 {
			t.Fatalf("result missing outcome: %+v", r)
		}
	}
}
