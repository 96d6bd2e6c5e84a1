// Command perfbench measures the Thermometer simulator end to end and layer
// by layer. One invocation runs one named workload and prints, as its last
// line, a JSON object with the ops attempted and failed, whether every
// output check held, and the metrics:
//
//	bash perfbench/run.sh --workload timing-grid --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd below); with
// --trace 1 the run also replays each op's inputs through one layer at a
// time and reports the per-layer metrics (layerMetrics). README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares (pinned by TestMetricCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"host_minstr_per_s", "Minstr/s"},
	{"specs_per_s", "specs/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mib", "MiB"},
}

// btbPolicies are the demand-BTB rows of the Fig 11 grid, in column order.
var btbPolicies = []string{"lru", "srrip", "ghrp", "hawkeye", "thermometer", "thermometer-7979", "opt"}

// replayPolicies are the policies the suite-profile op and each thermod
// sweep replay.
var replayPolicies = []string{"ghrp", "lru", "thermometer", "opt"}

var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"workload.generate_ms", "ms"},
		{"trace.access_stream_ms", "ms"},
		{"trace.write_ms", "ms"},
		{"trace.read_ms", "ms"},
		{"belady.profile_ms", "ms"},
		{"profile.build_ms", "ms"},
		{"profile.hints_io_ms", "ms"},
		{"profile.profile_trace_ms", "ms"},
		{"belady.hit_pct", "%"},
		{"suite.compulsory_only_pct", "%"},
		{"bpred.tage_ns", "ns"},
		{"bpred.mispredict_pct", "%"},
	}
	for _, p := range btbPolicies {
		m = append(m, metricDef{"btb.access_ns." + p, "ns"}, metricDef{"btb.hit_pct." + p, "%"})
	}
	m = append(m, metricDef{"btb.target_ns", "ns"})
	for _, p := range replayPolicies {
		m = append(m, metricDef{"replay.run_ms." + p, "ms"})
	}
	return append(m,
		metricDef{"core.build_meta_ms", "ms"},
		metricDef{"prefetch.twig_train_ms", "ms"},
		metricDef{"prefetch.confluence_ns", "ns"},
		metricDef{"prefetch.shotgun_ns", "ns"},
		metricDef{"prefetch.twig_ns", "ns"},
		metricDef{"prefetch.issued_per_kaccess", "1/kaccess"},
		metricDef{"btb.prefetch_fill_ns", "ns"},
		metricDef{"btb.prefetch_accept_pct", "%"},
		metricDef{"cache.fetch_instr_ns", "ns"},
		metricDef{"cache.load_data_ns", "ns"},
		metricDef{"cache.l1i_miss_pct", "%"},
		metricDef{"telemetry.overhead_ms", "ms"},
		metricDef{"attribution.overhead_ms", "ms"},
		metricDef{"hintqual.overhead_ms", "ms"},
		metricDef{"belady.shadow_ns", "ns"},
		metricDef{"belady.fa_shadow_ns", "ns"},
		metricDef{"core.run_ms", "ms"},
		metricDef{"core.self_ms", "ms"},
		metricDef{"runner.spec_ms", "ms"},
		metricDef{"runner.sweep_inproc_ms", "ms"},
		metricDef{"runner.cache_hit_pct", "%"},
		metricDef{"runner.trace_cache_evictions", "count"},
		metricDef{"server.submit_ms", "ms"},
		metricDef{"server.queue_wait_ms", "ms"},
		metricDef{"server.stream_ms", "ms"},
		metricDef{"server.fetch_ms", "ms"},
		metricDef{"server.overhead_ms", "ms"},
		metricDef{"server.rejected", "count"},
		metricDef{"model.therm_speedup_pct", "%"},
		metricDef{"model.opt_speedup_pct", "%"},
		metricDef{"model.therm_share_of_opt_pct", "%"},
		metricDef{"model.miss_reduction_over_ghrp_pct", "%"},
		metricDef{"tracing.overhead_pct", "%"},
		metricDef{"tracing.spans", "count"},
	)
}()

// env is what every workload receives.
type env struct {
	start   time.Time // process start, for the first set-up
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil for the untraced run
	thermod string  // thermod binary (thermod-sweeps)
	out     io.Writer
}

// setUps is how many times a run sets up; setup_s is their median.
const setUps = 5

func (e *env) traced() bool { return e.tr != nil }

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// report is one run's outcome.
type report struct {
	tally
	checks  []string           // failed run-level checks
	metrics map[string]float64 // by name; units come from the catalogs
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line assembles the final JSON object: every metric of the run's catalog,
// reading 0 for a layer this workload's ops never enter.
func (r *report) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = layerMetrics
	}
	out := resultLine{
		Correct:   r.failed == 0 && len(r.checks) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// workloads maps names to runners. The in-process workloads are one
// serial caller and run with one P: with two, the op's goroutine migrates
// between the two cores and the GC's background marking competes with it
// for the other one, which measured both slower and noisier. thermod-sweeps
// keeps both Ps for its two clients.
var workloads = map[string]struct {
	run    func(*env) (*report, error)
	serial bool
}{
	"timing-grid":       {runTimingGrid, true},
	"prefetch-observed": {runPrefetchObserved, true},
	"suite-profile":     {runSuiteProfile, true},
	"thermod-sweeps":    {runThermodSweeps, false},
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run (timing-grid, prefetch-observed, suite-profile, thermod-sweeps)")
	seed := flag.Uint64("seed", 0, "input seed; seed 0 runs the paper-figure inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	thermod := flag.String("thermod", "", "thermod binary, for thermod-sweeps")
	spanDir := flag.String("spans", "", "directory the traced run writes its spans to (empty = none)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	e := &env{
		start:   start,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		thermod: *thermod,
		out:     os.Stdout,
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if w.serial {
		runtime.GOMAXPROCS(1)
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if e.traced() {
		rep.metrics["tracing.spans"] = float64(len(e.tr.snapshot()))
		if *spanDir != "" {
			path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.spans.json", *name, *seed))
			if err := e.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
				os.Exit(1)
			}
			e.printf("spans: %s\n", path)
		}
	}
	for _, msg := range rep.errs {
		e.printf("failed op: %s\n", msg)
	}
	for _, msg := range rep.checks {
		e.printf("failed check: %s\n", msg)
	}
	b, err := json.Marshal(rep.line(e.traced()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
