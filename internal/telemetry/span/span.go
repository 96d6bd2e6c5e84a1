// Package span is the sweep-lifecycle span tracer: bounded, allocation-lean
// duration spans for the job pipeline (HTTP accept → queue wait → dispatch →
// trace load → hint load → simulate → aggregate), exportable as Chrome
// trace_event JSON.
//
// Two properties distinguish it from a general-purpose tracer:
//
//   - Deterministic identity. Span and parent IDs are not random: they are
//     derived (Derive) from stable strings — for runner jobs, the job's
//     SHA-256 spec key plus the stage name — so repeat runs of the same sweep
//     produce the same span IDs, and a serial run's trace is byte-identical
//     across invocations under a deterministic clock.
//
//   - Injected time. The tracer never reads the wall clock itself; the
//     embedding layer hands a NowNanos func in (cmd/thermod injects
//     time.Now().UnixNano, tests inject a counter). This package sits in
//     thermolint's noambient scope — unlike its parent internal/telemetry —
//     precisely so the analyzer enforces that contract.
//
// The ring is bounded like the telemetry event tracer: when full, the oldest
// spans are overwritten and the drop count is surfaced in the Chrome export
// metadata, never silently.
package span

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"thermometer/internal/telemetry"
)

// ID is a 64-bit span, parent, or trace identifier. The zero ID means
// "absent" (a root span has Parent 0).
type ID uint64

// String renders the ID as fixed-width hex (Chrome trace id format).
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Derive returns the deterministic ID for the given parts: the first 8 bytes
// of SHA-256 over the parts joined with NUL separators. Runner job spans use
// Derive(specKey) as the trace ID and Derive(specKey, stage) as the span ID,
// so a repeat run of the same spec traces identically.
func Derive(parts ...string) ID {
	h := sha256.New()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		io.WriteString(h, p)
	}
	sum := h.Sum(nil)
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// Span is one completed duration span. Plain data: the tracer stores spans
// by value in a preallocated ring, so recording is allocation-free.
type Span struct {
	Trace  ID     // groups the spans of one job/request
	ID     ID     // deterministic span identity
	Parent ID     // 0 for roots
	Name   string // stage name ("simulate", "queue_wait", …)
	Detail string // optional annotation ("hit", "miss", an error, …)
	Start  int64  // start, injected-clock nanoseconds
	Dur    int64  // duration in nanoseconds
}

// Tracer is a bounded ring of completed spans. When full it overwrites the
// oldest spans, so the last Cap spans of a long-running daemon are always
// available at fixed memory cost. All methods are safe for concurrent use,
// and every method is a no-op on a nil *Tracer so call sites need no guards.
type Tracer struct {
	nowNanos func() int64

	mu   sync.Mutex
	ring *telemetry.Ring[Span] // guarded by mu
}

// New returns a tracer retaining the last capacity spans (minimum 1).
// nowNanos is the injected clock used by Start/End; it must be non-nil —
// this package deliberately has no ambient-time fallback.
func New(nowNanos func() int64, capacity int) *Tracer {
	if nowNanos == nil {
		panic("span: New requires an injected NowNanos clock")
	}
	return &Tracer{nowNanos: nowNanos, ring: telemetry.NewRing[Span](capacity)}
}

// Cap returns the ring capacity; 0 on a nil tracer.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Cap()
}

// Total returns the number of spans ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// Record appends one completed span, overwriting the oldest when full. Use
// it when the caller owns the timestamps (the server computes queue-wait
// from envelope times); spans timed by the tracer's own clock go through
// Start/End instead.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring.Push(s)
	t.mu.Unlock()
}

// Active is an in-flight span started by Start. It is a value, not a
// pointer, so starting and ending a span allocates nothing.
type Active struct {
	t *Tracer
	s Span
}

// Start opens a span at the injected clock's current time. The caller
// supplies the deterministic identity (trace/id/parent, usually via Derive);
// End records it. Start on a nil tracer returns an inert Active.
func (t *Tracer) Start(trace, id, parent ID, name string) Active {
	if t == nil {
		return Active{}
	}
	return Active{t: t, s: Span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: t.nowNanos(),
	}}
}

// End closes the span and records it. No-op on an inert Active.
func (a Active) End() { a.EndDetail("") }

// EndDetail closes the span with an annotation and records it.
func (a Active) EndDetail(detail string) {
	if a.t == nil {
		return
	}
	a.s.Detail = detail
	a.s.Dur = a.t.nowNanos() - a.s.Start
	a.t.Record(a.s)
}

// Spans returns the retained spans oldest-first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out, _, _ := t.snapshot()
	return out
}

// snapshot copies the retained spans oldest-first together with the
// total/dropped counters under ONE lock acquisition, so the counters always
// agree with the span list even while Record runs concurrently (the
// /debug/spans handler exports during live sweeps).
func (t *Tracer) snapshot() (spans []Span, total, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Slice(), t.ring.Total(), t.ring.Dropped()
}

// WriteChromeTrace emits the retained spans as Chrome trace_event JSON
// (load via chrome://tracing or https://ui.perfetto.dev): one complete ("X")
// event per span, one tid lane per trace ID in first-appearance order, and a
// top-level metadata object carrying total/retained/dropped span counts so
// ring truncation is visible in the export itself, not just in logs.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var spans []Span
	var total, dropped uint64
	if t != nil {
		// One lock acquisition for all three: reading them separately lets a
		// concurrent Record land between the reads, exporting metadata that
		// contradicts the span array it describes.
		spans, total, dropped = t.snapshot()
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw,
		`{"displayTimeUnit":"ns","metadata":{"total_spans":%d,"retained_spans":%d,"dropped_spans":%d},"traceEvents":[`,
		total, len(spans), dropped)

	// One tid lane per trace, assigned in first-appearance order so the
	// export is a pure function of ring contents.
	lane := make(map[ID]int, len(spans))
	order := make([]ID, 0, len(spans))
	for _, s := range spans {
		if _, ok := lane[s.Trace]; !ok {
			lane[s.Trace] = len(order) + 1
			order = append(order, s.Trace)
		}
	}
	first := true
	for _, tr := range order {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw,
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"trace %s"}}`,
			lane[tr], tr)
	}
	for _, s := range spans {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw,
			`{"name":%q,"cat":"sweep","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":"%s","parent":"%s"`,
			s.Name, lane[s.Trace], float64(s.Start)/1000, float64(s.Dur)/1000, s.ID, s.Parent)
		if s.Detail != "" {
			fmt.Fprintf(bw, `,"detail":%q`, s.Detail)
		}
		bw.WriteString(`}}`)
	}
	if _, err := bw.WriteString("]}"); err != nil {
		return err
	}
	return bw.Flush()
}
