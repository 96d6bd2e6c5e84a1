package main

import (
	"fmt"
	"runtime"
	"time"
)

// opSample is one completed op: its measured wall time and the trace
// instructions it processed (whole trace, warm-up included).
type opSample struct {
	dur   time.Duration
	instr uint64
}

// setUp builds the workload's inputs setUps times and returns the
// median set-up time in seconds. The first set-up is timed from process
// start; before each later one, reset drops the previous inputs and the
// heap is collected outside the timed interval, so every set-up starts
// from the same state and peak memory holds one set of inputs. The
// timed section uses the inputs of the last set-up.
func setUp(e *env, reset func(), build func() error) (float64, error) {
	ds := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		t0 := e.start
		if i > 0 {
			reset()
			runtime.GC()
			t0 = time.Now()
		}
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	e.printf("setup: %d set-ups, median %.3fs of %v\n", len(ds), median(ds), ds)
	return median(ds), nil
}

// closedLoop is the in-process caller: one op in flight, op(0), op(1), ...
// until at least minOps have run and the timed section has lasted
// e.seconds. Each op starts on a collected heap, so it never pays for its
// predecessor's garbage and peak memory is that of the largest op; the
// collection counts in the section's wall time, not in the op's. An op
// that panics or returns an error is a failed op; an op that completes
// contributes its sample even if a later check fails it.
func closedLoop(e *env, rep *report, minOps int, op func(i int) (opSample, error)) ([]opSample, time.Duration) {
	var samples []opSample
	t0 := time.Now()
	deadline := t0.Add(e.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		var s opSample
		err := guard(func() error {
			var err error
			s, err = op(i)
			return err
		})
		rep.add(err)
		if s.dur > 0 {
			samples = append(samples, s)
		}
	}
	return samples, time.Since(t0)
}

// twinOps is how many leading ops of a traced run also run untraced,
// giving the tracing overhead on identical work. It is even, so the
// untraced twin runs first in as many pairs as the traced op does.
const twinOps = 8

// twins holds the measured times of a traced run's leading ops and of
// their untraced twins.
type twins struct{ traced, untraced []float64 }

// pair runs op i. In a traced run, a leading op first runs once untraced
// and unmeasured, since the first run of an op's inputs pays for faults
// and cold caches the runs after it do not; then its untraced twin runs
// alternately before and after the traced op. The heap is collected
// around every untraced run, so each run starts on a collected heap, as
// every op does. It returns the traced op's sample.
func (t *twins) pair(e *env, i int, op, untraced func() (opSample, error)) (opSample, error) {
	if !e.traced() || i >= twinOps {
		return op()
	}
	run := func() (opSample, error) {
		tr := e.tr
		e.tr = nil
		defer func() { e.tr = tr }()
		defer runtime.GC()
		return guardSample(untraced)
	}
	twin := func() error {
		s, err := run()
		t.untraced = append(t.untraced, ms(s.dur))
		return err
	}
	if _, err := run(); err != nil {
		return opSample{}, err
	}
	if i%2 == 0 {
		if err := twin(); err != nil {
			return opSample{}, err
		}
	}
	s, err := op()
	t.traced = append(t.traced, ms(s.dur))
	if err == nil && i%2 == 1 {
		err = twin()
	}
	return s, err
}

// overheadPct is how much longer the traced ops took than their untraced
// twins, in percent of the untraced time.
func (t *twins) overheadPct() float64 {
	var a, b float64
	for i := range t.untraced {
		a += t.traced[i]
		b += t.untraced[i]
	}
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// guardSample is guard for an op that returns a sample.
func guardSample(op func() (opSample, error)) (s opSample, err error) {
	err = guard(func() error {
		var e error
		s, e = op()
		return e
	})
	return s, err
}

// inprocEndToEnd fills the end-to-end metrics of an in-process workload.
func inprocEndToEnd(e *env, rep *report, samples []opSample, wall time.Duration, setup float64) error {
	ms := make([]float64, len(samples))
	var instr uint64
	var busy time.Duration
	for i, s := range samples {
		ms[i] = float64(s.dur) / float64(time.Millisecond)
		instr += s.instr
		busy += s.dur
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	p90, pct := tailPercentile(ms)
	rep.metrics["host_minstr_per_s"] = minstrPerSec(instr, busy)
	rep.metrics["specs_per_s"] = float64(len(samples)) / wall.Seconds()
	rep.metrics["op_ms_p50"] = median(ms)
	rep.metrics["op_ms_p90"] = p90
	rep.metrics["setup_s"] = setup
	rep.metrics["rss_peak_mib"] = rss
	e.printf("ops: %d completed in %.2fs; op_ms_p90 is the p%.1f op; throughput base: %d instructions over %.3fs of summed op time\n",
		len(samples), wall.Seconds(), pct, instr, busy.Seconds())
	return nil
}

// timed runs f inside a span and returns its wall time.
func (e *env) timed(name string, parent, op int, f func()) time.Duration {
	id := e.tr.begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	e.tr.end(id)
	return d
}

// perCall converts a span name's busy time into nanoseconds per call.
func perCall(lt map[string]layerTime, name string, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(lt[name].Busy.Nanoseconds()) / float64(calls)
}

// meanMs is a span name's mean duration in milliseconds.
func meanMs(lt map[string]layerTime, name string) float64 {
	t := lt[name]
	if t.Count == 0 {
		return 0
	}
	return float64(t.Busy) / float64(t.Count) / float64(time.Millisecond)
}

// pctOf is 100·num/den, or 0 without a base.
func pctOf(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
