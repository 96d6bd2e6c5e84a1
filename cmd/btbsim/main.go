// Command btbsim runs the timing simulator on a branch trace with a chosen
// BTB replacement policy and prints IPC and frontend statistics. It is the
// single-run counterpart of cmd/paperfigs.
//
// Usage:
//
//	btbsim -trace kafka0.trc                      # LRU baseline
//	btbsim -trace kafka0.trc -policy thermometer -hints kafka.hints
//	btbsim -trace kafka0.trc -policy opt -compare  # also run LRU, report speedup
//
// Telemetry (see the Observability section of README.md):
//
//	btbsim -trace kafka0.trc -epoch 100000 -metrics out.json   # epoch series
//	btbsim -trace kafka0.trc -events out.trace.json            # Chrome trace
//	btbsim -trace kafka0.trc -epochcsv epochs.csv              # CSV series
//	btbsim -trace kafka0.trc -http :6060                       # live expvar/pprof
//
// Miss attribution and replacement-regret audit (package attribution):
//
//	btbsim -trace kafka0.trc -attrib                           # text report
//	btbsim -trace kafka0.trc -attrib -regret-top 40            # more branches
//	btbsim -trace kafka0.trc -heatmap heat.csv                 # per-set series
//	btbsim -trace kafka0.trc -attrib -http :6060               # live /debug/attrib
//
// Hint-quality audit (package attribution): score the attached hint table
// live against a Belady shadow — coverage, per-bucket confusion, temperature
// drift. With -attrib as well, one recorder runs both audits:
//
//	btbsim -trace kafka1.trc -policy thermometer -hints kafka.hints -hintqual
//	btbsim -trace kafka1.trc -policy thermometer -hints kafka.hints -hintqual -http :6060
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"thermometer/internal/attribution"
	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
)

// version identifies the simulator build in run manifests; the VCS revision
// (when built from a checkout) is appended from debug.ReadBuildInfo.
const version = "1.1.0"

func buildString() string {
	s := version + " go=" + runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				s += " rev=" + kv.Value[:12]
			}
		}
	}
	return s
}

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace file (required)")
		polName   = flag.String("policy", "lru", "replacement policy: "+strings.Join(policy.Names(), ", "))
		hintsPath = flag.String("hints", "", "Thermometer hint file (from thermprof)")
		entries   = flag.Int("entries", 8192, "BTB entries")
		ways      = flag.Int("ways", 4, "BTB ways")
		ftq       = flag.Int("ftq", 192, "FTQ capacity in instructions")
		predictor = flag.String("predictor", "tage", "direction predictor: tage, perceptron, gshare, bimodal")
		twoLevel  = flag.Bool("twolevel", false, "use a 1K+8K two-level BTB organization")
		compare   = flag.Bool("compare", false, "also run the LRU baseline and report speedup")

		attrib      = flag.Bool("attrib", false, "attach the miss-attribution/regret audit layer and print its report")
		regretTop   = flag.Int("regret-top", 20, "number of most-regretted branches in the attribution report")
		heatmapPath = flag.String("heatmap", "", "write the per-set occupancy/temperature heatmap as CSV (implies attribution)")

		hintQual    = flag.Bool("hintqual", false, "attach the hint-quality audit layer (requires -hints) and print its report")
		hintQualTop = flag.Int("hintqual-top", 20, "number of most-mismatched branches in the hint-quality report")

		metricsPath  = flag.String("metrics", "", "write telemetry report (counters, histograms, epoch series) as JSON")
		eventsPath   = flag.String("events", "", "write BTB/redirect event trace as Chrome trace_event JSON")
		epochCSVPath = flag.String("epochcsv", "", "write the epoch time series as CSV")
		epoch        = flag.Uint64("epoch", 100000, "epoch length in instructions for the telemetry time series")
		eventCap     = flag.Int("eventcap", 1<<20, "event tracer ring-buffer capacity (retains the last N events)")
		httpAddr     = flag.String("http", "", "serve live telemetry, expvar, and pprof on this address (e.g. :6060)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("btbsim %s\n", buildString())
		return
	}
	if args := flag.Args(); len(args) > 0 {
		fatalf("unexpected arguments %q (all inputs are flags; see -h)", args)
	}
	if *tracePath == "" {
		fatalf("need -trace")
	}
	if *entries <= 0 || *ways <= 0 || *entries < *ways {
		fatalf("invalid BTB geometry: %d entries / %d ways", *entries, *ways)
	}
	if *ftq <= 0 {
		fatalf("invalid FTQ capacity %d", *ftq)
	}
	if *epoch == 0 {
		fatalf("-epoch must be positive")
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatalf("open: %v", err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatalf("read trace %s: %v", *tracePath, err)
	}
	if err := tr.Validate(); err != nil {
		fatalf("invalid trace %s: %v", *tracePath, err)
	}

	newPolicy, err := policy.ByName(*polName)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := core.DefaultConfig()
	cfg.BTBEntries = *entries
	cfg.BTBWays = *ways
	cfg.FTQInstrCap = *ftq
	cfg.NewPolicy = newPolicy
	if *twoLevel {
		cfg.TwoLevelBTB = core.DefaultTwoLevelBTB()
	}
	switch *predictor {
	case "tage":
		// default
	case "perceptron":
		cfg.NewPredictor = func() bpred.Predictor { return bpred.NewPerceptron(14, 48) }
	case "gshare":
		cfg.NewPredictor = func() bpred.Predictor { return bpred.NewGshare(16) }
	case "bimodal":
		cfg.NewPredictor = func() bpred.Predictor { return bpred.NewBimodal(16) }
	default:
		fatalf("unknown predictor %q (choose one of: tage, perceptron, gshare, bimodal)", *predictor)
	}
	if *hintsPath != "" {
		hf, err := os.Open(*hintsPath)
		if err != nil {
			fatalf("open hints: %v", err)
		}
		ht, err := profile.ReadHints(hf)
		hf.Close()
		if err != nil {
			fatalf("read hints %s: %v", *hintsPath, err)
		}
		cfg.Hints = ht
		if *polName != "thermometer" && *polName != "thermometer-nobypass" && *polName != "holistic" {
			fmt.Fprintf(os.Stderr, "btbsim: warning: -hints given but policy %q ignores temperature hints\n", *polName)
		}
	}

	// Attach the audit recorder when requested: the regret audit for
	// -attrib/-heatmap, the hint-quality audit for -hintqual, one recorder
	// for both. The heatmap samples and the drift windows close on the
	// telemetry epoch grid, so either also forces an observer below.
	var att, hq *attribution.Recorder
	if *attrib || *heatmapPath != "" || *hintQual {
		if *twoLevel {
			fatalf("-attrib/-heatmap/-hintqual require a monolithic BTB (drop -twolevel)")
		}
		rec := attribution.New(attribution.Options{})
		if *attrib || *heatmapPath != "" {
			if *regretTop <= 0 {
				fatalf("-regret-top must be positive")
			}
			att = rec
		}
		if *hintQual {
			if *hintsPath == "" {
				fatalf("-hintqual requires -hints (there is no hint table to audit)")
			}
			if *hintQualTop <= 0 {
				fatalf("-hintqual-top must be positive")
			}
			hq = rec
		}
		cfg.Attribution, cfg.HintQual = att, hq
	}

	// Attach the observer when any telemetry sink is requested.
	var obs *telemetry.Observer
	if *metricsPath != "" || *eventsPath != "" || *epochCSVPath != "" || *httpAddr != "" || *heatmapPath != "" || *hintQual {
		opts := telemetry.Options{EpochInterval: *epoch}
		if *eventsPath != "" || *httpAddr != "" {
			opts.EventCap = *eventCap
		}
		obs = telemetry.New(opts)
		cfg.Observer = obs
	}
	if obs != nil && *httpAddr != "" {
		var mounts []telemetry.Mount
		routes := "/metrics, /debug/vars, /debug/pprof"
		if att != nil {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/attrib", Handler: att.Handler()})
			routes += ", /debug/attrib"
		}
		if hq != nil {
			mounts = append(mounts, telemetry.Mount{Pattern: "/debug/hintqual", Handler: hq.Handler()})
			routes += ", /debug/hintqual"
		}
		bound, shutdown, err := obs.Serve(*httpAddr, mounts...)
		if err != nil {
			fatalf("telemetry http: %v", err)
		}
		defer shutdown()
		fmt.Printf("telemetry: serving %s on %s\n", routes, bound)
	}

	// Run manifest: everything needed to reproduce this run from the log.
	manifest := map[string]string{
		"version":   buildString(),
		"trace":     tr.Name,
		"tracefile": *tracePath,
		"records":   fmt.Sprintf("%d", tr.Len()),
		"policy":    *polName,
		"entries":   fmt.Sprintf("%d", *entries),
		"ways":      fmt.Sprintf("%d", *ways),
		"ftq":       fmt.Sprintf("%d", *ftq),
		"predictor": *predictor,
		"twolevel":  fmt.Sprintf("%v", *twoLevel),
		"hints":     *hintsPath,
		"warmup":    fmt.Sprintf("%g", cfg.WarmupFrac),
		"epoch":     fmt.Sprintf("%d", *epoch),
		"attrib":    fmt.Sprintf("%v", att != nil),
		"hintqual":  fmt.Sprintf("%v", hq != nil),
	}
	keys := make([]string, 0, len(manifest))
	for k := range manifest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, manifest[k]))
	}
	fmt.Printf("manifest: %s\n", strings.Join(parts, " "))

	r := core.Run(tr, cfg)
	fmt.Printf("trace %s, policy %s, BTB %d×%d\n", tr.Name, *polName, *entries, *ways)
	fmt.Printf("  instructions %d  cycles %d  IPC %.3f\n", r.Instructions, r.Cycles, r.IPC())
	fmt.Printf("  BTB: %.2f%% hit rate, %.2f MPKI, %d bypasses\n",
		100*r.BTB.HitRate(), r.BTBMPKI(), r.BTB.Bypasses)
	fmt.Printf("  direction mispredicts %d  RAS mispredicts %d  IBTB mispredicts %d\n",
		r.DirMispredicts, r.RASMispredicts, r.IBTBMispredicts)
	fmt.Printf("  stall cycles: redirect %d  icache %d  data %d\n",
		r.RedirectStall, r.ICacheStall, r.DataStall)
	fmt.Printf("  L2 instruction MPKI %.2f\n", r.L2iMPKI)
	if th, ok := r.Policy.(*policy.Thermometer); ok {
		fmt.Printf("  thermometer coverage %.1f%%, policy bypasses %d\n",
			100*th.Coverage(), th.Bypasses)
	}

	if obs != nil {
		writeSinks(obs, manifest, *metricsPath, *eventsPath, *epochCSVPath)
		if ev := obs.Events; ev != nil {
			if d := ev.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr,
					"btbsim: warning: event ring truncated: %d events dropped, last %d retained (raise -eventcap); dropped_events records the count in -metrics output\n",
					d, ev.Cap())
			}
		}
	}
	if att != nil {
		if *attrib {
			fmt.Println()
			if err := att.WriteText(os.Stdout, *regretTop); err != nil {
				fatalf("write attribution report: %v", err)
			}
		}
		if *heatmapPath != "" {
			f, err := os.Create(*heatmapPath)
			if err != nil {
				fatalf("create heatmap CSV: %v", err)
			}
			if err := att.WriteHeatCSV(f); err != nil {
				f.Close()
				fatalf("write heatmap CSV: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("close heatmap CSV: %v", err)
			}
			fmt.Printf("  attribution: wrote heatmap CSV to %s\n", *heatmapPath)
		}
	}
	if hq != nil {
		fmt.Println()
		if err := hq.WriteHintText(os.Stdout, *hintQualTop); err != nil {
			fatalf("write hint-quality report: %v", err)
		}
	}

	if *compare && *polName != "lru" {
		base := core.Run(tr, func() core.Config {
			c := cfg
			c.NewPolicy = func() btb.Policy { return policy.NewLRU() }
			c.Hints = nil
			c.Observer = nil    // telemetry describes the primary run only
			c.Attribution = nil // likewise the attribution audit
			c.HintQual = nil    // and the hint-quality audit
			return c
		}())
		fmt.Printf("  speedup over LRU: %.2f%% (LRU IPC %.3f)\n",
			100*core.Speedup(base, r), base.IPC())
	}
}

func writeSinks(obs *telemetry.Observer, manifest map[string]string, metricsPath, eventsPath, epochCSVPath string) {
	writeFile := func(path, what string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", what, err)
		}
		if err := write(f); err != nil {
			f.Close()
			fatalf("write %s: %v", what, err)
		}
		if err := f.Close(); err != nil {
			fatalf("close %s: %v", what, err)
		}
		fmt.Printf("  telemetry: wrote %s to %s\n", what, path)
	}
	if metricsPath != "" {
		writeFile(metricsPath, "metrics report", func(f *os.File) error {
			return obs.WriteJSON(f, manifest)
		})
	}
	if eventsPath != "" && obs.Events != nil {
		writeFile(eventsPath, "Chrome event trace", func(f *os.File) error {
			return obs.Events.WriteChromeTrace(f)
		})
	}
	if epochCSVPath != "" && obs.Epochs != nil {
		writeFile(epochCSVPath, "epoch CSV", func(f *os.File) error {
			return obs.Epochs.WriteCSV(f)
		})
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "btbsim: "+format+"\n", args...)
	os.Exit(1)
}
