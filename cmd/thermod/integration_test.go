package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"thermometer/internal/runner"
)

// The process golden test: a real thermod binary, started with its default
// flags on a loopback port, must serve the 4-policy × 8-workload grid with
// results whose JSON and CSV renderings are byte-identical to an in-process
// engine sweep, and must drain and exit 0 on SIGTERM. It pins what the
// daemon adds on top of the engine (spec decoding, queueing, the job
// envelope's results encoding) end to end over HTTP.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// thermodBin builds the thermod binary once per test run.
func thermodBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "thermod-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "thermod")
		cmd := exec.Command("go", "build", "-o", buildBin, ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// proc is one spawned thermod process.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	url    string
	logged chan struct{} // closed once stderr reaches EOF (the process exited)
}

var listenRe = regexp.MustCompile(`listening on ([^ ]+) `)

// startThermod launches the binary with -addr 127.0.0.1:0 and waits for its
// "listening on" line to learn the bound address.
func startThermod(t *testing.T) *proc {
	t.Helper()
	cmd := exec.Command(thermodBin(t), "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, logged: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
		_ = cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		t.Fatal("thermod never reported its listen address")
	}
	p.url = "http://" + p.addr
	return p
}

// goldenSpecs is the 4-policy × 8-workload grid in replay mode at a scale
// that keeps each cell a few milliseconds.
func goldenSpecs() []runner.Spec {
	var specs []runner.Spec
	for _, app := range []string{"cassandra", "clang", "drupal", "kafka", "mysql", "python", "tomcat", "wordpress"} {
		for _, p := range []string{"lru", "srrip", "ghrp", "hawkeye"} {
			specs = append(specs, runner.Spec{App: app, Mode: runner.ModeReplay, Scale: 64, Policy: p})
		}
	}
	return specs
}

// goldenJSON renders results as indented JSON, the encoding whose
// byte-identity the engine pins across pool widths.
func goldenJSON(t *testing.T, results []runner.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type jobDoc struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Results []runner.Result `json:"results"`
}

// submitAndWait posts the specs to thermod and polls the job until it
// reaches a terminal state, returning its results.
func submitAndWait(t *testing.T, baseURL string, specs []runner.Spec) []runner.Result {
	t.Helper()
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || job.ID == "" {
		t.Fatalf("submit: status %s, decode err %v, job %+v", resp.Status, err, job)
	}

	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", job.ID)
		}
		res, err := http.Get(baseURL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur jobDoc
		err = json.NewDecoder(res.Body).Decode(&cur)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == "done" {
			return cur.Results
		}
		if cur.State == "canceled" {
			t.Fatalf("job %s canceled", job.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSingleNodeGoldenByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a thermod process and runs a real sweep")
	}
	specs := goldenSpecs()
	want := goldenJSON(t, (&runner.Engine{}).Sweep(context.Background(), specs))

	p := startThermod(t)
	if got := goldenJSON(t, submitAndWait(t, p.url, specs)); got != want {
		t.Fatalf("thermod JSON diverges from the in-process engine:\n%s", firstDiff(want, got))
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.logged:
	case <-time.After(30 * time.Second):
		t.Fatal("thermod still running 30s after SIGTERM")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("thermod exit after SIGTERM: %v, want status 0", err)
	}
}

// trafficSpecs is a small sweep of the kinds the thermod-sweeps benchmark
// submits: suite replays under two policies, one with hints, and a
// quarter-length timing spec with hints.
func trafficSpecs() []runner.Spec {
	return []runner.Spec{
		{Suite: runner.SuiteCBP5, Index: 3, Scale: 16, Mode: runner.ModeReplay, Policy: "lru"},
		{Suite: runner.SuiteCBP5, Index: 3, Scale: 16, Mode: runner.ModeReplay, Policy: "thermometer", Hints: true},
		{Suite: runner.SuiteCBP5, Index: 3, Scale: 64, Mode: runner.ModeTiming, Policy: "thermometer", Hints: true},
	}
}

// progressEvent is one SSE progress frame, decoded into raw fields so the
// test can tell an absent field from a zero one.
type progressEvent struct {
	Progress map[string]json.RawMessage `json:"progress"`
}

// followEvents reads a job's SSE stream up to its end event and returns the
// progress payloads in stream order.
func followEvents(t *testing.T, baseURL, id string) []map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event stream: HTTP %d", resp.StatusCode)
	}
	var out []map[string]json.RawMessage
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "end" {
				return out
			}
		case strings.HasPrefix(line, "data: ") && event == "progress":
			var ev progressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("progress frame %q: %v", line, err)
			}
			out = append(out, ev.Progress)
		}
	}
	t.Fatalf("event stream of %s closed before its end event (scan error %v)", id, sc.Err())
	return nil
}

// trafficJob is the job envelope as the benchmark client decodes it.
type trafficJob struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	Failed      int        `json:"failed"`
	Results     []struct {
		Cached  bool            `json:"cached"`
		Outcome json.RawMessage `json:"outcome"`
		Err     string          `json:"error"`
	} `json:"results"`
}

// trafficSweep submits specs as a bare JSON array, follows the job's event
// stream to its end and fetches the finished job, as the benchmark client
// does. It returns the progress payloads and the job.
func trafficSweep(t *testing.T, baseURL string, specs []runner.Spec) ([]map[string]json.RawMessage, trafficJob) {
	t.Helper()
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job trafficJob
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || job.ID == "" {
		t.Fatalf("submit: status %s, decode err %v, job %+v", resp.Status, err, job)
	}
	progress := followEvents(t, baseURL, job.ID)

	resp, err = http.Get(baseURL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("fetch %s: status %s, decode err %v", job.ID, resp.Status, err)
	}
	if job.State != "done" || job.Failed != 0 || len(job.Results) != len(specs) {
		t.Fatalf("job %s: state %q, %d failed, %d of %d results", job.ID, job.State, job.Failed, len(job.Results), len(specs))
	}
	if job.SubmittedAt.IsZero() || job.StartedAt == nil || job.StartedAt.Before(job.SubmittedAt) {
		t.Fatalf("job %s: submitted_at %v, started_at %v", job.ID, job.SubmittedAt, job.StartedAt)
	}
	return progress, job
}

// doneProgress returns the progress payloads whose state is done, failing
// on any other terminal state.
func doneProgress(t *testing.T, progress []map[string]json.RawMessage) []map[string]json.RawMessage {
	t.Helper()
	var done []map[string]json.RawMessage
	for _, p := range progress {
		switch state := string(p["state"]); state {
		case `"started"`:
		case `"done"`:
			done = append(done, p)
		default:
			t.Fatalf("progress state %s, want started or done", state)
		}
	}
	return done
}

// TestBenchmarkTraffic drives a spawned thermod with exactly the traffic the
// thermod-sweeps benchmark sends: -addr alone, /readyz, a bare-array submit,
// the SSE stream read to its end event, the job fetch, a resubmission served
// from the result cache, three /metrics counters and a SIGTERM drain.
func TestBenchmarkTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a thermod process and runs a real sweep")
	}
	p := startThermod(t)
	resp, err := http.Get(p.url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: HTTP %d, want 200", resp.StatusCode)
	}

	specs := trafficSpecs()
	progress, first := trafficSweep(t, p.url, specs)
	done := doneProgress(t, progress)
	if len(done) != len(specs) {
		t.Fatalf("%d done progress events, want %d", len(done), len(specs))
	}
	for i, d := range done {
		if c, ok := d["cached"]; ok && string(c) != "false" {
			t.Fatalf("fresh spec's progress %d reads cached %s", i, c)
		}
		var ms float64
		if err := json.Unmarshal(d["duration_ms"], &ms); err != nil || ms <= 0 {
			t.Fatalf("fresh spec's progress %d: duration_ms %s (%v), want > 0", i, d["duration_ms"], err)
		}
	}
	for i, r := range first.Results {
		if r.Cached || r.Err != "" || len(r.Outcome) == 0 {
			t.Fatalf("first sweep result %d: cached %v, error %q, outcome %s", i, r.Cached, r.Err, r.Outcome)
		}
	}

	progress, again := trafficSweep(t, p.url, specs)
	done = doneProgress(t, progress)
	if len(done) != len(specs) {
		t.Fatalf("resubmission: %d done progress events, want %d", len(done), len(specs))
	}
	for i, d := range done {
		if string(d["cached"]) != "true" {
			t.Fatalf("resubmission progress %d reads cached %s, want true", i, d["cached"])
		}
	}
	for i, r := range again.Results {
		if !r.Cached || !bytes.Equal(r.Outcome, first.Results[i].Outcome) {
			t.Fatalf("resubmission result %d: cached %v, outcome equal %v", i, r.Cached, bytes.Equal(r.Outcome, first.Results[i].Outcome))
		}
	}

	var snap struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	resp, err = http.Get(p.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/metrics: status %s, decode err %v", resp.Status, err)
	}
	ctr := snap.Metrics.Counters
	if _, ok := ctr["runner_trace_cache_evictions"]; !ok {
		t.Fatalf("/metrics lacks runner_trace_cache_evictions: %v", ctr)
	}
	if n := uint64(len(specs)); ctr["runner_cache_hits"] != n || ctr["runner_cache_misses"] != n {
		t.Fatalf("/metrics result cache: %d hits, %d misses, want %d of each", ctr["runner_cache_hits"], ctr["runner_cache_misses"], n)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.logged:
	case <-time.After(30 * time.Second):
		t.Fatal("thermod still running 30s after SIGTERM")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("thermod exit after SIGTERM: %v, want status 0", err)
	}
}

// firstDiff renders the first divergent line of two texts for readable
// failures (the full documents are thousands of lines).
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}
