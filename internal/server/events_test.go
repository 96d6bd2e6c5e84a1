package server

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermometer/internal/runner"
	"thermometer/internal/telemetry/span"
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
		p := runner.Progress{Index: i, Key: results[i].Key}
		if ctx.Err() != nil {
			results[i].Err = "canceled: " + ctx.Err().Error()
			p.State = runner.ProgressCanceled
			p.Err = results[i].Err
		} else {
			results[i].Outcome = &runner.Outcome{Trace: sp.TraceName(), Accesses: 1000, Instructions: 5000}
			p.State = runner.ProgressDone
			p.Accesses = 1000
			p.Instructions = 5000
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

func dialSSE(t *testing.T, baseURL, jobID, lastEventID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
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

	c := dialSSE(t, ts.URL, "job-000001", "")
	defer c.cancel()
	// Replayed prefix: queued, running, spec-0 started.
	if ev := c.next(t); ev.Type != "state" || ev.State != StateQueued || ev.Seq != 0 {
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
			done++
			if ev.Progress.Done != done || ev.Progress.Total != 3 {
				t.Fatalf("done/total = %d/%d after %d completions", ev.Progress.Done, ev.Progress.Total, done)
			}
			if ev.Progress.BlocksPerSec <= 0 {
				t.Fatalf("no throughput on completed spec: %+v", ev.Progress)
			}
		}
	}
	if done != 3 {
		t.Fatalf("saw %d spec completions, want 3", done)
	}
	c.waitEnd(t)
}

// TestSSEReplayCompletedJob pins that connecting after a job has finished
// replays its whole event log — with dense sequence numbers — and closes.
func TestSSEReplayCompletedJob(t *testing.T) {
	s := newTestServer(t, &stepRunner{}, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, s.Handler(), `[{"app":"kafka"},{"app":"mysql"}]`)
	waitState(t, s, "job-000001", StateDone)

	c := dialSSE(t, ts.URL, "job-000001", "")
	defer c.cancel()
	// queued + running + 2×(started+done) + done = 7 events.
	var got []JobEvent
	for i := 0; i < 7; i++ {
		got = append(got, c.next(t))
	}
	c.waitEnd(t)
	for i, ev := range got {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (log not dense): %+v", i, ev.Seq, got)
		}
	}
	if got[0].State != StateQueued || got[6].State != StateDone {
		t.Fatalf("replayed log endpoints: %+v … %+v", got[0], got[6])
	}

	// Resume: Last-Event-ID 4 replays only 5 and 6.
	c2 := dialSSE(t, ts.URL, "job-000001", "4")
	defer c2.cancel()
	if ev := c2.next(t); ev.Seq != 5 {
		t.Fatalf("resume started at seq %d, want 5", ev.Seq)
	}
	if ev := c2.next(t); ev.Seq != 6 || ev.State != StateDone {
		t.Fatalf("resume tail: %+v", ev)
	}
	c2.waitEnd(t)

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

	c := dialSSE(t, ts.URL, "job-000001", "")
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

// TestServerSpans checks the serving-side lifecycle spans: http_accept,
// queue_wait, sweep, and the job root, all with IDs derived from the job ID.
func TestServerSpans(t *testing.T) {
	tr := span.New(func() int64 { return 0 }, 64) // server spans carry their own times
	s := newTestServer(t, &stepRunner{}, Options{Spans: tr})
	post(t, s.Handler(), `[{"app":"kafka"}]`)
	waitState(t, s, "job-000001", StateDone)

	byName := map[string]span.Span{}
	for _, sp := range tr.Spans() {
		byName[sp.Name] = sp
	}
	root := span.Derive("job-000001", "job")
	for _, name := range []string{"http_accept", "queue_wait", "sweep", "job"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("missing span %q (have %v)", name, tr.Spans())
		}
		if sp.Trace != span.Derive("job-000001") || sp.ID != span.Derive("job-000001", name) {
			t.Fatalf("span %q identity: %+v", name, sp)
		}
		if name != "job" && sp.Parent != root {
			t.Fatalf("span %q not parented to job root: %+v", name, sp)
		}
	}
	// fixedClock ticks 1s per read: queue_wait and sweep have positive,
	// envelope-consistent durations.
	if byName["sweep"].Dur <= 0 || byName["queue_wait"].Dur < 0 {
		t.Fatalf("span durations: sweep=%d queue_wait=%d", byName["sweep"].Dur, byName["queue_wait"].Dur)
	}
}

// TestSSEHostileLastEventID resumes with Last-Event-ID values crafted to
// overflow the cursor arithmetic (MaxInt → cursor wraps negative → the
// log[seq:] reslice panics) or to be negative outright. The server must
// treat both as "replay from the start" instead of crashing the handler.
func TestSSEHostileLastEventID(t *testing.T) {
	s := newTestServer(t, &stepRunner{}, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, s.Handler(), `[{"app":"kafka"}]`)
	waitState(t, s, "job-000001", StateDone)

	// MaxInt would make cursor = n+1 wrap negative; negative and garbage
	// values are rejected by parsing. All three must fall back to a full
	// replay.
	for _, lei := range []string{strconv.Itoa(math.MaxInt), "-7", "junk"} {
		c := dialSSE(t, ts.URL, "job-000001", lei)
		// queued + running + started + done(progress) + done(state) = 5 events.
		if ev := c.next(t); ev.Seq != 0 {
			t.Fatalf("Last-Event-ID %q: first replayed seq = %d, want 0", lei, ev.Seq)
		}
		for i := 0; i < 4; i++ {
			c.next(t)
		}
		c.waitEnd(t)
		c.cancel()
	}

	// A huge but in-range ID is past the end of the log: nothing to replay,
	// clean end-of-stream, no panic.
	c := dialSSE(t, ts.URL, "job-000001", strconv.Itoa(math.MaxInt-1))
	c.waitEnd(t)
	c.cancel()
}

// TestSSEKeepAlive freezes a sweep and watches the raw byte stream: an idle
// connection must receive ": keepalive" comment frames, and because comments
// carry no id: line they must not disturb Last-Event-ID resume afterwards.
func TestSSEKeepAlive(t *testing.T) {
	fr := &stepRunner{step: make(chan struct{})}
	s := newTestServer(t, fr, Options{KeepAlive: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, s.Handler(), `[{"app":"kafka"}]`)
	waitState(t, s, "job-000001", StateRunning)

	// Read the stream raw: dialSSE's parser skips comments by design, and
	// this test is about the bytes on the wire.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/job-000001/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	keepalives, maxSeq := 0, -1
	deadline := time.After(5 * time.Second)
	for keepalives < 3 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before any keepalive")
			}
			if line == ": keepalive" {
				keepalives++
			}
			if n, found := strings.CutPrefix(line, "id: "); found {
				seq, err := strconv.Atoi(n)
				if err != nil {
					t.Fatalf("malformed id line %q", line)
				}
				maxSeq = seq
			}
		case <-deadline:
			t.Fatalf("saw only %d keepalives on an idle stream", keepalives)
		}
	}
	// The frozen sweep emitted exactly queued, running, spec-0 started — the
	// keepalives must not have minted any event IDs beyond that.
	if maxSeq != 2 {
		t.Fatalf("idle stream advanced the event log: max seq %d, want 2", maxSeq)
	}
	cancel()

	// Finish the job, then resume from mid-log: the replay must pick up at
	// exactly seq 3 — keepalive comments left no trace in the sequence space.
	fr.step <- struct{}{}
	waitState(t, s, "job-000001", StateDone)
	c := dialSSE(t, ts.URL, "job-000001", "2")
	defer c.cancel()
	if ev := c.next(t); ev.Seq != 3 || ev.Progress == nil || ev.Progress.State != "done" {
		t.Fatalf("resume after keepalives: %+v", ev)
	}
	if ev := c.next(t); ev.Seq != 4 || ev.State != StateDone {
		t.Fatalf("resume tail: %+v", ev)
	}
	c.waitEnd(t)
}
