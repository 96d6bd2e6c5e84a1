package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// seededObserver builds an observer with a fixed, fully deterministic set of
// metrics, epochs, and events — the same every call.
func seededObserver() *Observer {
	obs := New(Options{EpochInterval: 100, EventCap: 8})
	obs.Metrics.Counter("btb_inserts").Add(7)
	obs.Metrics.Counter("btb_evictions").Add(3)
	obs.Metrics.Gauge("btb_capacity").Set(32768)
	h := obs.Metrics.Histogram("ftq_lead_cycles")
	for _, v := range []uint64{1, 2, 4, 8, 200} {
		h.Observe(v)
	}
	obs.Epochs.Tick(&Cumulative{Instructions: 120, Cycles: 150, BTBAccesses: 30, BTBHits: 25, BTBMisses: 5})
	obs.Epochs.Finish(&Cumulative{Instructions: 170, Cycles: 220, BTBAccesses: 41, BTBHits: 33, BTBMisses: 8})
	obs.Events.Record(Event{Cycle: 10, PC: 0x401000, Arg: 0x402000, Kind: EvInsert, Temp: 3})
	obs.Events.Record(Event{Cycle: 20, PC: 0x401000, Arg: 0x401000, Kind: EvEvict})
	return obs
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

// The debug mux must answer every advertised route with the right status and
// content type — including the pprof endpoints the README quickstart points
// at.
func TestHandlerRoutesStatusAndContentType(t *testing.T) {
	srv := httptest.NewServer(seededObserver().Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path       string
		wantStatus int
		wantType   string
	}{
		{"/metrics", http.StatusOK, "application/json"},
		{"/debug/vars", http.StatusOK, "application/json; charset=utf-8"},
		{"/debug/pprof/", http.StatusOK, "text/html; charset=utf-8"},
		{"/debug/pprof/cmdline", http.StatusOK, "text/plain; charset=utf-8"},
		{"/debug/pprof/heap?debug=1", http.StatusOK, "text/plain; charset=utf-8"},
		{"/debug/pprof/goroutine?debug=1", http.StatusOK, "text/plain; charset=utf-8"},
		{"/nope", http.StatusNotFound, "text/plain; charset=utf-8"},
	} {
		resp, _ := get(t, srv, tc.path)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.wantType {
			t.Errorf("GET %s: content type %q, want %q", tc.path, ct, tc.wantType)
		}
	}
}

// Identically seeded observers must serve byte-identical /metrics bodies:
// the live debug surface inherits the repo-wide determinism contract.
func TestMetricsBodyDeterministic(t *testing.T) {
	bodies := make([][]byte, 2)
	for i := range bodies {
		srv := httptest.NewServer(seededObserver().Handler())
		_, body := get(t, srv, "/metrics")
		srv.Close()
		bodies[i] = body
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty /metrics body")
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatalf("/metrics not deterministic across identically seeded runs:\n%s\n----\n%s",
			bodies[0], bodies[1])
	}
}

// Extra mounts must be routed both at the exact pattern and under its
// subtree, without disturbing the built-in routes.
func TestHandlerMounts(t *testing.T) {
	mounted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte("mounted:" + r.URL.Path))
	})
	srv := httptest.NewServer(seededObserver().Handler(Mount{Pattern: "/v1/jobs", Handler: mounted}))
	defer srv.Close()

	for _, path := range []string{"/v1/jobs", "/v1/jobs/job-000001/events"} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if want := "mounted:" + path; string(body) != want {
			t.Fatalf("GET %s: body %q, want %q", path, body, want)
		}
	}
	if resp, _ := get(t, srv, "/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatal("mounting broke /metrics")
	}
}
