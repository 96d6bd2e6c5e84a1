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
func goldenSpecs(t *testing.T) []runner.Spec {
	t.Helper()
	apps := []string{"cassandra", "clang", "drupal", "kafka", "mysql", "python", "tomcat", "wordpress"}
	bases := make([]runner.Spec, len(apps))
	for i, app := range apps {
		bases[i] = runner.Spec{App: app, Mode: runner.ModeReplay, Scale: 64}
	}
	specs, err := runner.Grid(bases, []string{"lru", "srrip", "ghrp", "hawkeye"})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// goldenBytes renders results the way cmd/btbsim does: the sink JSON and CSV
// encodings whose byte-identity the engine pins across pool widths.
func goldenBytes(t *testing.T, results []runner.Result) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := runner.WriteJSON(&j, results); err != nil {
		t.Fatal(err)
	}
	if err := runner.WriteCSV(&c, results); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
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
	specs := goldenSpecs(t)
	wantJSON, wantCSV := goldenBytes(t, (&runner.Engine{}).Sweep(context.Background(), specs))

	p := startThermod(t)
	gotJSON, gotCSV := goldenBytes(t, submitAndWait(t, p.url, specs))
	if gotJSON != wantJSON {
		t.Fatalf("thermod JSON diverges from the in-process engine:\n%s", firstDiff(wantJSON, gotJSON))
	}
	if gotCSV != wantCSV {
		t.Fatalf("thermod CSV diverges from the in-process engine:\n%s", firstDiff(wantCSV, gotCSV))
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
