package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thermometer/internal/runner"
)

// stepRunner is a SweepRunner fake that emits the started/terminal
// notification pair per spec and, when step is non-nil, waits for one step
// token before completing each spec — letting tests freeze a sweep
// mid-flight.
type stepRunner struct {
	step chan struct{}
}

func (f *stepRunner) SweepProgress(ctx context.Context, specs []runner.Spec, fn func(runner.Progress)) []runner.Result {
	results := make([]runner.Result, len(specs))
	for i, sp := range specs {
		if fn != nil {
			fn(runner.Progress{Index: i, State: runner.ProgressStarted})
		}
		if f.step != nil {
			select {
			case <-f.step:
			case <-ctx.Done():
			}
		}
		results[i] = runner.Result{Spec: sp, Key: sp.Key()}
		p := runner.Progress{Index: i}
		if ctx.Err() != nil {
			results[i].Err = "canceled: " + ctx.Err().Error()
			p.State = runner.ProgressCanceled
			p.Err = results[i].Err
		} else {
			results[i].Outcome = &runner.Outcome{Trace: sp.TraceName(), Accesses: 1000, Instructions: 5000}
			p.State = runner.ProgressDone
		}
		if fn != nil {
			fn(p)
		}
	}
	return results
}

// sseClient connects to a job's event stream over a real HTTP server and
// parses frames into JobEvents on a channel.
type sseClient struct {
	events <-chan JobEvent
	ended  <-chan struct{}
	cancel context.CancelFunc
}

func dialSSE(t *testing.T, baseURL, jobID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content-type %q", ct)
	}
	events := make(chan JobEvent, 64)
	ended := make(chan struct{})
	go func() {
		defer resp.Body.Close()
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var evType, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				evType = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if evType == "end" {
					close(ended)
					return
				}
				if data != "" {
					var ev JobEvent
					if json.Unmarshal([]byte(data), &ev) == nil {
						events <- ev
					}
				}
				evType, data = "", ""
			}
		}
	}()
	return &sseClient{events: events, ended: ended, cancel: cancel}
}

func (c *sseClient) next(t *testing.T) JobEvent {
	t.Helper()
	select {
	case ev, ok := <-c.events:
		if !ok {
			t.Fatal("event stream closed early")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE event")
	}
	return JobEvent{}
}

func (c *sseClient) waitEnd(t *testing.T) {
	t.Helper()
	select {
	case <-c.ended:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never ended")
	}
}

// TestSSEMidSweep connects while a sweep is frozen mid-flight: the client
// must replay the events so far, then receive the remainder live and a
// clean end-of-stream after the terminal state.
func TestSSEMidSweep(t *testing.T) {
	fr := &stepRunner{step: make(chan struct{})}
	s := newTestServer(t, fr, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if w := post(t, s.Handler(), `[{"app":"kafka"},{"app":"mysql"},{"app":"python"}]`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	waitState(t, s, "job-000001", StateRunning)

	c := dialSSE(t, ts.URL, "job-000001")
	defer c.cancel()
	// Replayed prefix: queued, running, spec-0 started.
	if ev := c.next(t); ev.Type != "state" || ev.State != StateQueued {
		t.Fatalf("event 0: %+v", ev)
	}
	if ev := c.next(t); ev.Type != "state" || ev.State != StateRunning {
		t.Fatalf("event 1: %+v", ev)
	}
	if ev := c.next(t); ev.Type != "progress" || ev.Progress.Index != 0 || ev.Progress.State != "started" {
		t.Fatalf("event 2: %+v", ev)
	}

	// Release the three specs and follow the live tail.
	for i := 0; i < 3; i++ {
		fr.step <- struct{}{}
	}
	done := 0
	for {
		ev := c.next(t)
		if ev.Type == "state" {
			if ev.State != StateDone {
				t.Fatalf("unexpected state event: %+v", ev)
			}
			break
		}
		if ev.Progress == nil {
			t.Fatalf("progress event without payload: %+v", ev)
		}
		if ev.Progress.State == "done" {
			if ev.Progress.Index != done {
				t.Fatalf("completion %d reports spec %d", done, ev.Progress.Index)
			}
			done++
			// The fixed clock ticks once a second, and each spec's started
			// and done events read it.
			if ev.Progress.DurationMs <= 0 {
				t.Fatalf("no duration on completed spec: %+v", ev.Progress)
			}
		}
	}
	if done != 3 {
		t.Fatalf("saw %d spec completions, want 3", done)
	}
	c.waitEnd(t)
}

// TestSSEReplayCompletedJob pins that connecting after a job has finished
// replays its whole event log in order and closes.
func TestSSEReplayCompletedJob(t *testing.T) {
	s := newTestServer(t, &stepRunner{}, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, s.Handler(), `[{"app":"kafka"},{"app":"mysql"}]`)
	waitState(t, s, "job-000001", StateDone)

	c := dialSSE(t, ts.URL, "job-000001")
	defer c.cancel()
	// queued + running + 2×(started+done) + done = 7 events.
	var got []JobEvent
	for i := 0; i < 7; i++ {
		got = append(got, c.next(t))
	}
	c.waitEnd(t)
	want := []string{"state queued", "state running", "progress started", "progress done", "progress started", "progress done", "state done"}
	for i, ev := range got {
		kind := ev.Type + " " + ev.State
		if ev.Progress != nil {
			kind = ev.Type + " " + ev.Progress.State
		}
		if kind != want[i] {
			t.Fatalf("event %d is %q, want %q: %+v", i, kind, want[i], got)
		}
	}

	if w := get(t, s.Handler(), "/v1/jobs/job-999999/events"); w.Code != http.StatusNotFound {
		t.Fatalf("events of unknown job = %d, want 404", w.Code)
	}
}

// TestSSEDisconnectDoesNotBlockDispatcher kills the streaming client while
// the sweep is frozen, then lets the sweep finish: the dispatcher must
// complete the job (and a later one) even though nobody is reading events,
// and the dead client's watcher must be reaped.
func TestSSEDisconnectDoesNotBlockDispatcher(t *testing.T) {
	fr := &stepRunner{step: make(chan struct{})}
	s := newTestServer(t, fr, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, s.Handler(), `[{"app":"kafka"},{"app":"mysql"}]`)
	waitState(t, s, "job-000001", StateRunning)

	c := dialSSE(t, ts.URL, "job-000001")
	c.next(t)  // prove the stream is live…
	c.cancel() // …then vanish without consuming the rest

	// The dispatcher keeps appending events with nobody reading. If any
	// notify were blocking, these sends would hang and the test would time
	// out.
	for i := 0; i < 2; i++ {
		select {
		case fr.step <- struct{}{}:
		case <-time.After(5 * time.Second):
			t.Fatal("dispatcher blocked after client disconnect")
		}
	}
	waitState(t, s, "job-000001", StateDone)

	// A follow-up job flows through untouched.
	fr.step = nil
	post(t, s.Handler(), `[{"app":"python"}]`)
	waitState(t, s, "job-000002", StateDone)

	// The disconnected watcher unregisters (poll: the cancel is async).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.watchers)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("watcher leaked after client disconnect")
}
