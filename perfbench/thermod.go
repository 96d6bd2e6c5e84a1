package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"thermometer/internal/metrics"
	"thermometer/internal/runner"
	"thermometer/internal/workload"
	"thermometer/internal/xrand"
)

// thermodClients is the number of closed-loop clients, one per core of the
// two-core machine the sizing was taken on.
const thermodClients = 2

// daemon is a thermod child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	logged chan struct{} // closed when the stderr drain has finished
	tail   []string      // last log lines, for error messages
	mu     sync.Mutex
}

var listenRE = regexp.MustCompile(`thermod listening on (\S+)`)

// startDaemon launches thermod with its default flags, except that it
// listens on a free loopback port, and waits until /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, "-addr", "127.0.0.1:0"), logged: make(chan struct{})}
	// If the benchmark itself is killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting thermod: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 8 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logged:
		d.stop()
		return nil, fmt.Errorf("thermod exited before listening: %s", d.lastLog())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("thermod did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("thermod not ready within 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "; ")
}

// stop drains thermod with SIGTERM, kills it if it has not exited after
// 15s, and waits for the process and its log reader to finish.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.logged
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// sweepSpecs is one sweep: the suite trace under the four replay policies
// plus one quarter-length Thermometer timing spec.
func sweepSpecs(i int) []runner.Spec {
	suite, index := runner.SuiteCBP5, i
	if i >= workload.CBP5Count {
		suite, index = runner.SuiteIPC1, i-workload.CBP5Count
	}
	specs := make([]runner.Spec, 0, len(replayPolicies)+1)
	for _, p := range replayPolicies {
		specs = append(specs, runner.Spec{Suite: suite, Index: index, Mode: runner.ModeReplay, Policy: p, Hints: p == "thermometer"})
	}
	return append(specs, runner.Spec{Suite: suite, Index: index, Scale: 4, Mode: runner.ModeTiming, Policy: "thermometer", Hints: true})
}

// jobDoc is the part of thermod's job envelope the benchmark reads.
type jobDoc struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	Results     []struct {
		Cached  bool            `json:"cached"`
		Outcome json.RawMessage `json:"outcome"`
		Err     string          `json:"error"`
	} `json:"results"`
	Failed int `json:"failed"`
}

type outcomeCounts struct {
	Instructions uint64 `json:"instructions"`
	Misses       uint64 `json:"misses"`
}

// sweepRun is one completed sweep as the client saw it.
type sweepRun struct {
	lat      time.Duration
	doc      jobDoc
	specMs   []float64 // per fresh spec, from the progress events
	rejected int
}

// client drives thermod over HTTP, recording spans to tr.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

// sweep submits specs, follows the job's event stream to its end and
// fetches the results.
func (c *client) sweep(specs []runner.Spec, root, op int) (sweepRun, error) {
	var run sweepRun
	body, err := json.Marshal(specs)
	if err != nil {
		return run, err
	}
	t0 := time.Now()
	var job jobDoc
	for {
		sp := c.tr.begin("server.submit", root, op)
		resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return run, fmt.Errorf("submitting: %w", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.tr.end(sp)
		if err != nil {
			return run, fmt.Errorf("reading submit response: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			run.rejected++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return run, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		if err := json.Unmarshal(b, &job); err != nil {
			return run, fmt.Errorf("decoding submit response: %w", err)
		}
		break
	}

	sp := c.tr.begin("server.stream", root, op)
	specMs, err := c.follow(job.ID)
	c.tr.end(sp)
	if err != nil {
		return run, err
	}
	run.specMs = specMs

	sp = c.tr.begin("server.fetch", root, op)
	resp, err := c.http.Get(c.base + "/v1/jobs/" + job.ID)
	if err != nil {
		return run, fmt.Errorf("fetching results: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	if err != nil {
		return run, fmt.Errorf("reading results: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("fetch: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &run.doc); err != nil {
		return run, fmt.Errorf("decoding results: %w", err)
	}
	run.lat = time.Since(t0)
	if st := run.doc.StartedAt; st != nil {
		c.tr.record("server.queue_wait", run.doc.SubmittedAt, *st, root, op)
	}
	return run, nil
}

// follow reads the job's SSE stream until its end event and returns the
// durations the progress events report for freshly executed specs.
func (c *client) follow(id string) ([]float64, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, fmt.Errorf("opening event stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("event stream: HTTP %d", resp.StatusCode)
	}
	var ms []float64
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "end" {
				return ms, nil
			}
		case strings.HasPrefix(line, "data: ") && event == "progress":
			var ev struct {
				Progress struct {
					State      string  `json:"state"`
					Cached     bool    `json:"cached"`
					DurationMs float64 `json:"duration_ms"`
				} `json:"progress"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, fmt.Errorf("decoding progress event: %w", err)
			}
			if p := ev.Progress; p.State == runner.ProgressDone && !p.Cached {
				ms = append(ms, p.DurationMs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading event stream: %w", err)
	}
	return nil, errors.New("event stream closed before its end event")
}

// checkSweep verifies one sweep's results: every spec done without error,
// OPT's replay misses at most every other policy's, and for a resubmitted
// sweep outcomes byte-identical to the first submission's, all served
// from the result cache. It returns the instructions of freshly executed
// specs.
func checkSweep(run sweepRun, n int, first [][]byte) (uint64, error) {
	d := run.doc
	if d.State != "done" || d.Failed != 0 || len(d.Results) != n {
		return 0, fmt.Errorf("job %s: state %q, %d failed, %d of %d results", d.ID, d.State, d.Failed, len(d.Results), n)
	}
	var instr uint64
	misses := make([]uint64, n)
	for i, r := range d.Results {
		if r.Err != "" || len(r.Outcome) == 0 {
			return 0, fmt.Errorf("job %s spec %d: %q", d.ID, i, r.Err)
		}
		var oc outcomeCounts
		if err := json.Unmarshal(r.Outcome, &oc); err != nil {
			return 0, fmt.Errorf("job %s spec %d: decoding outcome: %w", d.ID, i, err)
		}
		misses[i] = oc.Misses
		if !r.Cached {
			instr += oc.Instructions
		}
		if first != nil && (!r.Cached || !bytes.Equal(r.Outcome, first[i])) {
			return 0, fmt.Errorf("job %s spec %d: resubmission not served identically from the cache (cached=%v)", d.ID, i, r.Cached)
		}
	}
	opt := misses[len(replayPolicies)-1]
	for i := range replayPolicies {
		if misses[i] < opt {
			return 0, fmt.Errorf("job %s: %s replay misses %d below OPT's %d", d.ID, replayPolicies[i], misses[i], opt)
		}
	}
	return instr, nil
}

func outcomes(d jobDoc) [][]byte {
	out := make([][]byte, len(d.Results))
	for i, r := range d.Results {
		out[i] = r.Outcome
	}
	return out
}

func runThermodSweeps(e *env) (*report, error) {
	if e.thermod == "" {
		return nil, errors.New("--thermod is required")
	}
	rep := newReport()
	order := suiteOrder(e.seed, 0x7377_6570)
	warm := warmTrace
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * thermodClients}, Timeout: 2 * time.Minute}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setup, err := setUp(e, func() { d.stop(); d = nil }, func() error {
		var err error
		if d, err = startDaemon(e.thermod); err != nil {
			return err
		}
		c := &client{base: d.base, http: hc}
		run, err := c.sweep(sweepSpecs(warm), -1, -1)
		if err == nil {
			_, err = checkSweep(run, len(sweepSpecs(warm)), nil)
		}
		if err != nil {
			return fmt.Errorf("warm-up sweep: %w (thermod log: %s)", err, d.lastLog())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A fresh sweep of the traced part, re-run in-process once the clients
	// have stopped.
	type freshSweep struct {
		idx, op int
		lat     time.Duration
	}
	type clientResult struct {
		tally
		lats     []float64
		specs    int
		instr    uint64
		specMs   []float64
		rejected int
		// Traced run: the latencies of the untraced and the traced fresh
		// sweeps, and the traced fresh sweeps.
		untracedLat, tracedLat []float64
		rerun                  []freshSweep
	}
	results := make([]clientResult, thermodClients)
	t0 := time.Now()
	deadline := t0.Add(e.seconds)
	var wg sync.WaitGroup
	for ci := 0; ci < thermodClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			c := &client{base: d.base, http: hc}
			rng := xrand.New(xrand.Mix64(e.seed ^ uint64(ci) ^ 0x636c_6965))
			firsts := make(map[int][][]byte)
			var done []int
			fresh := ci
			for k := 0; time.Now().Before(deadline); k++ {
				idx, resub := 0, k%4 == 3 && len(done) > 0
				nth := 0 // how many fresh sweeps this client ran before
				if resub {
					idx = done[rng.Intn(len(done))]
				} else {
					if fresh >= len(order) {
						return // every trace swept once
					}
					nth = (fresh - ci) / thermodClients
					idx, fresh = order[fresh], fresh+thermodClients
				}
				// In the traced run every other fresh sweep records no spans:
				// those are the untraced baseline of the tracing overhead,
				// interleaved with the traced ones over the whole run.
				baseline := e.traced() && !resub && nth%2 == 0
				c.tr = e.tr
				if baseline {
					c.tr = nil
				}
				op := ci<<20 | k
				root := c.tr.begin("sweep", -1, op)
				specs := sweepSpecs(idx)
				var run sweepRun
				err := guard(func() error {
					var err error
					if run, err = c.sweep(specs, root, op); err != nil {
						return err
					}
					instr, err := checkSweep(run, len(specs), firsts[idx])
					res.instr += instr
					return err
				})
				c.tr.end(root)
				res.rejected += run.rejected
				res.add(err)
				if err != nil {
					continue
				}
				res.lats = append(res.lats, ms(run.lat))
				res.specs += len(specs)
				res.specMs = append(res.specMs, run.specMs...)
				if resub {
					continue
				}
				firsts[idx] = outcomes(run.doc)
				done = append(done, idx)
				switch {
				case baseline:
					res.untracedLat = append(res.untracedLat, ms(run.lat))
				case e.traced():
					res.tracedLat = append(res.tracedLat, ms(run.lat))
					res.rerun = append(res.rerun, freshSweep{idx, op, run.lat})
				}
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(t0)

	var lats, specMs, untracedLat, tracedLat []float64
	var rerun []freshSweep
	var specs, rejected int
	var instr uint64
	for i := range results {
		r := &results[i]
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.errs = append(rep.errs, r.errs...)
		lats = append(lats, r.lats...)
		specMs = append(specMs, r.specMs...)
		untracedLat = append(untracedLat, r.untracedLat...)
		tracedLat = append(tracedLat, r.tracedLat...)
		rerun = append(rerun, r.rerun...)
		specs += r.specs
		instr += r.instr
		rejected += r.rejected
	}
	rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, fmt.Errorf("reading thermod peak RSS: %w", err)
	}
	var snap struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := getJSON(hc, d.base+"/metrics", &snap); err != nil {
		return nil, err
	}
	ctr := snap.Metrics.Counters
	e.printf("sweeps: %d by %d closed-loop clients in %.2fs, one in four a resubmission; %d specs; result cache %d hits / %d misses; trace cache %d evictions\n",
		len(lats), thermodClients, wall.Seconds(), specs, ctr["runner_cache_hits"], ctr["runner_cache_misses"], ctr["runner_trace_cache_evictions"])

	if !e.traced() {
		p90, pct := tailPercentile(lats)
		rep.metrics["host_minstr_per_s"] = float64(instr) / wall.Seconds() / 1e6
		rep.metrics["specs_per_s"] = float64(specs) / wall.Seconds()
		rep.metrics["op_ms_p50"] = median(lats)
		rep.metrics["op_ms_p90"] = p90
		rep.metrics["setup_s"] = setup
		rep.metrics["rss_peak_mib"] = rss
		e.printf("op_ms_p90 is the p%.1f sweep; throughput base: %d instructions simulated by fresh specs over %.3fs of wall time\n", pct, instr, wall.Seconds())
		return rep, nil
	}

	// The same fresh sweeps through runner.Engine in this process, one at a
	// time, after the daemon has stopped: neither measurement loads the
	// other. The engine is as wide as the daemon's (GOMAXPROCS), and each
	// sweep's trace is new to this process's trace cache, as it was to the
	// daemon's.
	d.stop()
	d = nil
	var inprocMs, overheadMs []float64
	for _, f := range rerun {
		inproc := e.timed("runner.sweep_inproc", -1, f.op, func() { (&runner.Engine{}).Sweep(context.Background(), sweepSpecs(f.idx)) })
		inprocMs = append(inprocMs, ms(inproc))
		overheadMs = append(overheadMs, ms(f.lat-inproc))
	}
	e.printf("in-process: %d fresh sweeps of the traced part re-run through runner.Engine with thermod stopped\n", len(rerun))

	lt := layerTimes(e.tr.snapshot())
	for _, m := range []string{"submit", "queue_wait", "stream", "fetch"} {
		rep.metrics["server."+m+"_ms"] = meanMs(lt, "server."+m)
	}
	rep.metrics["server.overhead_ms"] = metrics.Mean(overheadMs)
	rep.metrics["server.rejected"] = float64(rejected)
	rep.metrics["runner.spec_ms"] = metrics.Mean(specMs)
	rep.metrics["runner.sweep_inproc_ms"] = metrics.Mean(inprocMs)
	rep.metrics["runner.cache_hit_pct"] = pctOf(ctr["runner_cache_hits"], ctr["runner_cache_hits"]+ctr["runner_cache_misses"])
	rep.metrics["runner.trace_cache_evictions"] = float64(ctr["runner_trace_cache_evictions"])
	if m := median(untracedLat); m > 0 {
		rep.metrics["tracing.overhead_pct"] = 100 * (median(tracedLat)/m - 1)
	}
	e.printf("tracing overhead base: median latency of %d traced fresh sweeps over that of the %d untraced ones interleaved with them\n", len(tracedLat), len(untracedLat))
	return rep, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
