package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share its op id; root spans have parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the traced run; they are written once,
// at exit. A nil *tracer records nothing, so untraced runs pay one nil
// check per would-be span and allocate nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// record adds an already-timed span (for intervals measured elsewhere,
// such as the daemon's own timestamps).
func (t *tracer) record(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime is a span name's aggregate: how many spans, their summed
// duration (busy) and their summed self time (duration minus the part of
// it covered by child spans).
type layerTime struct {
	Count      int
	Busy, Self time.Duration
}

// layerTimes aggregates closed spans by name.
func layerTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		lt := out[s.Name]
		lt.Count++
		lt.Busy += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(selfTime(s, spans, children[i]))
		out[s.Name] = lt
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// each clipped to s. Overlapping children (concurrent callers) are counted
// once.
func selfTime(s span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if c.End >= c.Start && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return s.End - s.Start - covered
}
