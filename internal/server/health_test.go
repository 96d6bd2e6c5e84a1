package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"thermometer/internal/runner"
)

// TestHealthzAlwaysOK pins liveness: healthz stays 200 before, during, and
// after a drain — the process is alive the whole time.
func TestHealthzAlwaysOK(t *testing.T) {
	fr := &fakeRunner{}
	s := newTestServer(t, fr, Options{})
	if w := get(t, s.Healthz(), "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := get(t, s.Healthz(), "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", w.Code)
	}
}

// TestReadyzFlipsOnDrainStart pins the readiness contract: /readyz answers
// 200 while the server accepts work and 503 the moment the drain begins —
// while queued sweeps are still flushing, before the listener would close —
// matching the instant Submit starts returning ErrDraining.
func TestReadyzFlipsOnDrainStart(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s := newTestServer(t, fr, Options{})
	w := get(t, s.Readyz(), "/readyz")
	if w.Code != http.StatusOK {
		t.Fatalf("readyz while serving = %d, want 200", w.Code)
	}
	var body struct{ Status string }
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Status != "ok" {
		t.Fatalf("readyz body = %q (err %v), want status ok", w.Body.String(), err)
	}

	// Park a sweep on the gate so the drain has in-flight work, then start
	// the shutdown. Readiness must flip before the drain finishes.
	if _, err := s.Submit([]runner.Spec{{App: "kafka"}}); err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan error, 1)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	go func() { drainDone <- s.Shutdown(drainCtx) }()

	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if w := get(t, s.Readyz(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", w.Code)
	}
	if _, err := s.Submit([]runner.Spec{{App: "kafka"}}); err != ErrDraining {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	close(fr.gate) // release the parked sweep so the drain completes
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if w := get(t, s.Readyz(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503 (still not accepting work)", w.Code)
	}
}
