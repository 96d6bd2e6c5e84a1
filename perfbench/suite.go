package main

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"thermometer/internal/belady"
	"thermometer/internal/core"
	"thermometer/internal/profile"
	"thermometer/internal/replay"
	"thermometer/internal/trace"
)

// suiteModelOps is the fixed op prefix the suite model outputs are taken
// over, so they do not depend on how many ops a run fits in.
const suiteModelOps = 100

// suiteOp is one suite trace's outcome, kept for the model outputs.
type suiteOp struct {
	accesses, beladyHits uint64
	reduction            float64 // Thermometer's miss reduction over GHRP
	compulsoryOnly       bool
}

func runSuiteProfile(e *env) (*report, error) {
	rep := newReport()
	order := suiteOrder(e.seed, 0x7375_6974)
	def := core.DefaultConfig()
	var results []suiteOp
	// run is op i on suite trace idx; model records its outcome for the
	// model outputs.
	run := func(idx, i int, model bool) (opSample, error) {
		spec := suiteSpec(idx)
		root := e.tr.begin("op", -1, i)
		defer e.tr.end(root)
		var busy time.Duration
		stage := func(name string, f func()) { busy += e.timed(name, root, i, f) }

		var tr, back *trace.Trace
		var buf bytes.Buffer
		var err error
		stage("workload.generate", func() { tr = spec.Generate(0) })
		stage("trace.write", func() { err = trace.Write(&buf, tr) })
		if err != nil {
			return opSample{}, fmt.Errorf("%s: writing trace: %w", spec.Name, err)
		}
		stage("trace.read", func() { back, err = trace.Read(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return opSample{}, fmt.Errorf("%s: reading trace: %w", spec.Name, err)
		}
		s := opSample{instr: tr.Instructions()}
		if back.Name != tr.Name || !slices.Equal(back.Records, tr.Records) {
			s.dur = busy
			return s, fmt.Errorf("%s: trace file round trip changed the trace", spec.Name)
		}
		var acc []trace.Access
		stage("trace.access_stream", func() { acc = back.AccessStream() })
		var opt *belady.Result
		stage("belady.profile", func() { opt = belady.Profile(acc, def.BTBEntries, def.BTBWays) })
		var ht, ht2 *profile.HintTable
		stage("profile.build", func() { ht, err = profile.Build(opt, profile.DefaultConfig()) })
		if err != nil {
			return opSample{}, fmt.Errorf("%s: building hints: %w", spec.Name, err)
		}
		var hbuf bytes.Buffer
		stage("profile.hints_io", func() {
			if err = ht.Write(&hbuf); err == nil {
				ht2, err = profile.ReadHints(&hbuf)
			}
		})
		if err != nil {
			return opSample{}, fmt.Errorf("%s: hint file round trip: %w", spec.Name, err)
		}
		if !maps.Equal(ht.Hints, ht2.Hints) {
			s.dur = busy
			return s, fmt.Errorf("%s: hint file round trip changed the hints", spec.Name)
		}
		misses := make(map[string]uint64, len(replayPolicies))
		for _, p := range replayPolicies {
			o := replay.Options{Entries: def.BTBEntries, Ways: def.BTBWays, Policy: newPolicy(p)()}
			if p == "thermometer" {
				o.Hints = ht2
			}
			var r *replay.Result
			stage("replay.run."+p, func() { r = replay.Run(acc, o) })
			misses[p] = r.Stats.Misses
		}
		s.dur = busy

		if misses["opt"] != opt.Misses {
			return s, fmt.Errorf("%s: OPT replay misses %d, belady.Profile %d", spec.Name, misses["opt"], opt.Misses)
		}
		for _, p := range replayPolicies {
			if misses[p] < misses["opt"] {
				return s, fmt.Errorf("%s: %s misses %d below OPT's %d", spec.Name, p, misses[p], misses["opt"])
			}
		}
		if model && i < suiteModelOps {
			o := suiteOp{accesses: opt.Accesses, beladyHits: opt.Hits}
			if g := misses["ghrp"]; g > 0 {
				o.reduction = (float64(g) - float64(misses["thermometer"])) / float64(g)
			}
			// The same rule as Fig 17: OPT has (almost) only first-touch misses.
			uniq := uint64(len(opt.PerBranch))
			o.compulsoryOnly = opt.Misses <= uniq+uniq/100
			results = append(results, o)
		}
		return s, nil
	}
	setup, err := setUp(e, func() {}, func() error {
		_, err := guardSample(func() (opSample, error) { return run(warmTrace, -1, false) })
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.traced() {
		e.tr = newTracer() // drop the warm-up's spans
	}
	var tw twins
	samples, wall := closedLoop(e, rep, suiteModelOps, func(i int) (opSample, error) {
		idx := order[i%len(order)]
		return tw.pair(e, i, func() (opSample, error) { return run(idx, i, true) }, func() (opSample, error) { return run(idx, i, false) })
	})

	var red float64
	var acc, hits uint64
	compulsory := 0
	for _, o := range results {
		red += o.reduction
		acc += o.accesses
		hits += o.beladyHits
		if o.compulsoryOnly {
			compulsory++
		}
	}
	n := float64(max(len(results), 1))
	rep.check(len(results) == suiteModelOps, "only %d of the first %d suite traces completed", len(results), suiteModelOps)
	red = 100 * red / n
	e.printf("model (suite-profile, first %d traces of the seed's order): Thermometer miss reduction over GHRP %.2f%% (paper +%.2f%%); base: mean over traces of (GHRP misses - Thermometer misses) / GHRP misses, whole-stream replays with no warm-up; %d of %d traces have only compulsory misses; the model is unvalidated against the paper's numbers\n",
		len(results), red, paperOverGHRP, compulsory, len(results))
	if !e.traced() {
		return rep, inprocEndToEnd(e, rep, samples, wall, setup)
	}
	lt := layerTimes(e.tr.snapshot())
	for _, m := range []string{"workload.generate", "trace.access_stream", "trace.write", "trace.read", "belady.profile", "profile.build", "profile.hints_io"} {
		rep.metrics[m+"_ms"] = meanMs(lt, m)
	}
	for _, p := range replayPolicies {
		rep.metrics["replay.run_ms."+p] = meanMs(lt, "replay.run."+p)
	}
	rep.metrics["profile.profile_trace_ms"] = meanMs(lt, "belady.profile") + meanMs(lt, "profile.build")
	rep.metrics["belady.hit_pct"] = pctOf(hits, acc)
	rep.metrics["suite.compulsory_only_pct"] = 100 * float64(compulsory) / n
	rep.metrics["model.miss_reduction_over_ghrp_pct"] = red
	rep.metrics["tracing.overhead_pct"] = tw.overheadPct()
	return rep, nil
}
