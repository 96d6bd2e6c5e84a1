package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Bucket i covers [2^(i-1), 2^i − 1]: the doubling boundaries.
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{15, 4}, {16, 5}, {1023, 10}, {1024, 11},
		{1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.bucket {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Upper bounds are one less than the next power of two.
	for i := 1; i < 64; i++ {
		want := uint64(1)<<uint(i) - 1
		if got := BucketUpperBound(i); got != want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", i, got, want)
		}
	}
	if BucketUpperBound(0) != 0 || BucketUpperBound(64) != ^uint64(0) {
		t.Error("edge upper bounds wrong")
	}
	// Every boundary value lands in its own bucket, one below in the
	// previous.
	h := NewHistogram()
	for i := 1; i < 20; i++ {
		h.Observe(1 << uint(i))     // lower edge of bucket i+1
		h.Observe(1<<uint(i+1) - 1) // upper edge of bucket i+1
		h.Observe(1<<uint(i) - 1)   // upper edge of bucket i
	}
	snap := h.Snapshot()
	if snap.Count != 57 {
		t.Fatalf("count = %d, want 57", snap.Count)
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 110 || h.Max() != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-22) > 1e-9 {
		t.Fatalf("mean = %v, want 22", got)
	}
	// p50: rank 2 of 5 lands in bucket of value 2 (upper bound 3).
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	// p99 lands in the top bucket; its bound is tightened to the max.
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("p99 = %d, want 100 (observed max)", got)
	}
	if NewHistogram().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestEpochSamplerAlignmentAtTraceEnd(t *testing.T) {
	s := NewEpochSampler(100)
	tick := func(instr, cycles uint64) {
		c := Cumulative{Instructions: instr, Cycles: cycles}
		if s.Due(instr) {
			s.Tick(&c)
		}
	}
	tick(60, 50)
	tick(130, 120) // crosses 100 → epoch [0,130)
	tick(190, 170)
	tick(250, 260)                                        // crosses 200 → epoch [130,250)
	s.Finish(&Cumulative{Instructions: 275, Cycles: 300}) // partial tail

	eps := s.Epochs()
	if len(eps) != 3 {
		t.Fatalf("epochs = %d, want 3", len(eps))
	}
	var total uint64
	for i, e := range eps {
		total += e.Instructions
		if e.Index != uint64(i) {
			t.Errorf("epoch %d has index %d", i, e.Index)
		}
	}
	// Alignment: the series accounts for every retired instruction, with
	// the final partial epoch flushed by Finish.
	if total != 275 {
		t.Fatalf("sum of epoch instructions = %d, want 275", total)
	}
	if eps[2].StartInstr != 250 || eps[2].EndInstr != 275 || eps[2].Instructions != 25 {
		t.Fatalf("tail epoch = %+v", eps[2])
	}
	// Finish is idempotent and the sampler is frozen afterwards.
	s.Finish(&Cumulative{Instructions: 999})
	tick(999, 999)
	if len(s.Epochs()) != 3 {
		t.Fatal("sampler recorded epochs after Finish")
	}
}

func TestEpochSamplerRates(t *testing.T) {
	s := NewEpochSampler(10)
	c1 := Cumulative{
		Instructions: 10, Cycles: 20,
		BTBAccesses: 8, BTBHits: 6, BTBMisses: 2,
		BTBValid: 3, BTBCapacity: 4, TempOccupancy: [NumTemperatures]uint64{1, 0, 2, 0},
	}
	s.Tick(&c1)
	e := s.Epochs()[0]
	if e.IPC != 0.5 || e.BTBMPKI != 200 || e.BTBHitRate != 0.75 {
		t.Fatalf("rates = %+v", e)
	}
	if e.Occupancy != 0.75 || e.TempOccupancy[0] != 0.25 || e.TempOccupancy[2] != 0.5 {
		t.Fatalf("occupancy = %+v", e)
	}
}

func TestEpochSamplerRestart(t *testing.T) {
	s := NewEpochSampler(10)
	s.Tick(&Cumulative{Instructions: 15, Cycles: 30})
	s.Restart()
	if len(s.Epochs()) != 0 {
		t.Fatal("Restart kept epochs")
	}
	// Post-restart totals restart from zero (the simulator zeroes its
	// counters at end of warmup); deltas must not underflow.
	s.Tick(&Cumulative{Instructions: 12, Cycles: 24})
	e := s.Epochs()[0]
	if e.Instructions != 12 || e.Cycles != 24 {
		t.Fatalf("post-restart epoch = %+v", e)
	}
}

func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Cycle: uint64(i), PC: uint64(100 + i), Kind: EvInsert})
	}
	if tr.Total() != 10 || tr.Dropped() != 6 || tr.Cap() != 4 {
		t.Fatalf("total/dropped/cap = %d/%d/%d", tr.Total(), tr.Dropped(), tr.Cap())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// Oldest-first: cycles 6,7,8,9.
	for i, ev := range evs {
		if ev.Cycle != uint64(6+i) {
			t.Fatalf("event %d has cycle %d, want %d", i, ev.Cycle, 6+i)
		}
	}
	if tr.CountByKind(EvInsert) != 10 || tr.CountByKind(EvEvict) != 0 {
		t.Fatal("kind counts wrong")
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Cycle: 1})
	tr.Record(Event{Cycle: 2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 || tr.Dropped() != 0 {
		t.Fatalf("partial fill = %+v dropped %d", evs, tr.Dropped())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Event{Cycle: 1000, PC: 0x401000, Arg: 0x402000, Kind: EvInsert, Temp: 2})
	tr.Record(Event{Cycle: 2000, PC: 0x401000, Arg: 0x401234, Kind: EvEvict, Temp: 1})
	tr.Record(Event{Cycle: 3000, PC: 0x403000, Arg: RedirectDirMispredict, Kind: EvRedirect})
	tr.Record(Event{Cycle: 4000, PC: 0x404000, Arg: 0x405000, Kind: EvBypass})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		Metadata        map[string]int64 `json:"metadata"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Ts   float64                `json:"ts"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	// 5 thread-name metadata rows + 4 events.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("trace events = %d, want 9", len(doc.TraceEvents))
	}
	var kinds []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			kinds = append(kinds, ev.Name)
		}
	}
	if got := strings.Join(kinds, ","); got != "insert,evict,redirect,bypass" {
		t.Fatalf("event kinds = %s", got)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "redirect" && ev.Ph == "i" {
			if cause, _ := ev.Args["cause"].(string); cause != "dir_mispredict" {
				t.Fatalf("redirect cause = %v", ev.Args["cause"])
			}
		}
	}
	if doc.Metadata["total_events"] != 4 || doc.Metadata["retained_events"] != 4 || doc.Metadata["dropped_events"] != 0 {
		t.Fatalf("metadata = %v", doc.Metadata)
	}
}

// TestChromeTraceDroppedMetadata pins that ring truncation is visible in the
// exported file itself, not only as a CLI warning.
func TestChromeTraceDroppedMetadata(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Cycle: uint64(i) * 1000, Kind: EvInsert})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata map[string]int64 `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Metadata["total_events"] != 10 || doc.Metadata["retained_events"] != 4 || doc.Metadata["dropped_events"] != 6 {
		t.Fatalf("metadata = %v", doc.Metadata)
	}
}

func TestRegistrySnapshotAndReport(t *testing.T) {
	obs := New(Options{EpochInterval: 50, EventCap: 8})
	obs.Metrics.Counter("a").Add(3)
	obs.Metrics.Gauge("g").Set(7)
	obs.Metrics.Histogram("h").Observe(5)
	obs.Metrics.SetCounter("forced", 42)
	obs.Epochs.Tick(&Cumulative{Instructions: 60, Cycles: 60})
	obs.Events.Record(Event{Cycle: 1, Kind: EvInsert})

	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, map[string]string{"trace": "unit"}); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Manifest["trace"] != "unit" {
		t.Fatal("manifest missing")
	}
	if rep.Metrics.Counters["a"] != 3 || rep.Metrics.Counters["forced"] != 42 {
		t.Fatalf("counters = %+v", rep.Metrics.Counters)
	}
	if rep.Metrics.Gauges["g"] != 7 {
		t.Fatalf("gauges = %+v", rep.Metrics.Gauges)
	}
	if rep.Metrics.Histograms["h"].Count != 1 {
		t.Fatalf("histograms = %+v", rep.Metrics.Histograms)
	}
	if len(rep.Epochs) != 1 || rep.Epochs[0].Instructions != 60 {
		t.Fatalf("epochs = %+v", rep.Epochs)
	}
	if rep.Events == nil || rep.Events.Total != 1 || rep.Events.ByKind["insert"] != 1 {
		t.Fatalf("events = %+v", rep.Events)
	}
}

func TestRegistryNamesAndReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	r.Gauge("y")
	r.Histogram("z")
	want := []string{"x", "y", "z"}
	got := r.Names()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
}

func TestObserverHTTP(t *testing.T) {
	obs := New(Options{EpochInterval: 10})
	obs.Metrics.Counter("hits").Add(2)
	bound, shutdown, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("live /metrics not valid JSON: %v", err)
	}
	if rep.Metrics.Counters["hits"] != 2 {
		t.Fatalf("live counters = %+v", rep.Metrics.Counters)
	}
	if resp2, err := http.Get("http://" + bound + "/debug/vars"); err == nil {
		resp2.Body.Close()
		if resp2.StatusCode != 200 {
			t.Fatalf("/debug/vars status %d", resp2.StatusCode)
		}
	} else {
		t.Fatal(err)
	}
}

// TestRingWraparound checks the ring's order and counts while it fills,
// exactly at capacity, and after it has wrapped several times.
func TestRingWraparound(t *testing.T) {
	const capacity = 37
	r := NewRing[int](capacity)
	check := func(pushed int) {
		t.Helper()
		first := max(0, pushed-capacity)
		got := r.Slice()
		if len(got) != pushed-first || r.Len() != len(got) {
			t.Fatalf("after %d pushes: %d retained, Len %d, want %d", pushed, len(got), r.Len(), pushed-first)
		}
		for i, v := range got {
			if v != first+i {
				t.Fatalf("after %d pushes: element %d is %d, want %d", pushed, i, v, first+i)
			}
		}
		if r.Total() != uint64(pushed) || r.Dropped() != uint64(first) || r.Cap() != capacity {
			t.Fatalf("after %d pushes: total %d dropped %d cap %d", pushed, r.Total(), r.Dropped(), r.Cap())
		}
	}
	pushed := 0
	for _, upTo := range []int{1, capacity - 1, capacity, capacity + 1, 3 * capacity, 3*capacity + capacity/2} {
		for ; pushed < upTo; pushed++ {
			r.Push(pushed)
		}
		check(pushed)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Slice()) != 0 || r.Cap() != capacity {
		t.Fatal("Reset did not empty the ring")
	}
	r.Push(7)
	if s := r.Slice(); len(s) != 1 || s[0] != 7 {
		t.Fatalf("after Reset and one push: %v", s)
	}
}

// TestLocalHistogramFlushMatchesDirect: staging observations in a
// LocalHistogram and flushing them, in several batches, leaves a Histogram
// identical to observing each value directly.
func TestLocalHistogramFlushMatchesDirect(t *testing.T) {
	direct, staged := NewHistogram(), NewHistogram()
	var l LocalHistogram
	l.FlushTo(staged) // an empty flush changes nothing
	v := uint64(1)
	for i := 0; i < 5000; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		x := v >> (v % 64)
		direct.Observe(x)
		l.Observe(x)
		if i%777 == 0 {
			l.FlushTo(staged)
		}
	}
	l.FlushTo(staged)
	if d, s := direct.Snapshot(), staged.Snapshot(); !reflect.DeepEqual(d, s) {
		t.Fatalf("staged histogram differs from direct:\n direct %+v\n staged %+v", d, s)
	}
}
