package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// EventKind classifies one traced simulator event.
type EventKind uint8

// Event kinds. The BTB structural events mirror btb.ProbeKind; Redirect is
// a frontend resteer (FTQ squash) attributed by cause in Event.Arg.
const (
	EvInsert EventKind = iota
	EvEvict
	EvBypass
	EvPrefetchFill
	EvRedirect
	numEventKinds
)

// String returns the Chrome-trace event name.
func (k EventKind) String() string {
	switch k {
	case EvInsert:
		return "insert"
	case EvEvict:
		return "evict"
	case EvBypass:
		return "bypass"
	case EvPrefetchFill:
		return "prefetch_fill"
	case EvRedirect:
		return "redirect"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Redirect causes carried in Event.Arg for EvRedirect events.
const (
	RedirectBTBMiss uint64 = iota
	RedirectDirMispredict
	RedirectTargetMispredict
)

func redirectCause(arg uint64) string {
	switch arg {
	case RedirectBTBMiss:
		return "btb_miss"
	case RedirectDirMispredict:
		return "dir_mispredict"
	case RedirectTargetMispredict:
		return "target_mispredict"
	default:
		return "unknown"
	}
}

// Event is one traced occurrence. The meaning of Arg depends on Kind:
// for EvEvict it is the evicted branch PC, for EvRedirect the cause code,
// otherwise the branch target.
type Event struct {
	Cycle uint64    `json:"cycle"`
	PC    uint64    `json:"pc"`
	Arg   uint64    `json:"arg"`
	Kind  EventKind `json:"kind"`
	Temp  uint8     `json:"temp"`
}

// Tracer is a bounded ring buffer of Events. When full it overwrites the
// oldest events, so a trace of the *last* Cap events of a long run is
// always available at a fixed memory cost. The zero value is unusable; use
// NewTracer.
type Tracer struct {
	ring   *Ring[Event]
	byKind [numEventKinds]uint64
}

// NewTracer returns a tracer retaining the last cap events (minimum 1).
func NewTracer(cap int) *Tracer { return &Tracer{ring: NewRing[Event](cap)} }

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return t.ring.Cap() }

// Total returns the number of events ever recorded (≥ len(Events())).
func (t *Tracer) Total() uint64 { return t.ring.Total() }

// Dropped returns how many events were overwritten by wraparound.
func (t *Tracer) Dropped() uint64 { return t.ring.Dropped() }

// CountByKind returns how many events of kind k were ever recorded,
// including overwritten ones.
func (t *Tracer) CountByKind(k EventKind) uint64 {
	if int(k) >= len(t.byKind) {
		return 0
	}
	return t.byKind[k]
}

// Record appends one event, overwriting the oldest when full.
func (t *Tracer) Record(ev Event) {
	t.ring.Push(ev)
	if int(ev.Kind) < len(t.byKind) {
		t.byKind[ev.Kind]++
	}
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event { return t.ring.Slice() }

// WriteChromeTrace emits the retained events in Chrome trace_event JSON
// (load via chrome://tracing or https://ui.perfetto.dev). Events are
// instant events on one thread per kind; one simulated cycle maps to one
// nanosecond of trace time (ts is in microseconds). The top-level metadata
// object reports ring truncation — dropped_events > 0 means the trace shows
// only the tail of the run, not just in the btbsim CLI warning but in the
// exported file itself.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw,
		`{"displayTimeUnit":"ns","metadata":{"total_events":%d,"retained_events":%d,"dropped_events":%d},"traceEvents":[`,
		t.Total(), t.ring.Len(), t.Dropped()); err != nil {
		return err
	}
	// Thread-name metadata rows make the per-kind lanes readable.
	for k := EventKind(0); k < numEventKinds; k++ {
		if k > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw,
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			int(k)+1, k.String())
	}
	for _, ev := range t.Events() {
		bw.WriteByte(',')
		ts := float64(ev.Cycle) / 1000 // cycles→ns, ts field is µs
		switch ev.Kind {
		case EvRedirect:
			fmt.Fprintf(bw,
				`{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{"pc":"0x%x","cause":%q}}`,
				ev.Kind.String(), int(ev.Kind)+1, ts, ev.PC, redirectCause(ev.Arg))
		case EvEvict:
			fmt.Fprintf(bw,
				`{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{"pc":"0x%x","evicted":"0x%x","temp":%d}}`,
				ev.Kind.String(), int(ev.Kind)+1, ts, ev.PC, ev.Arg, ev.Temp)
		default:
			fmt.Fprintf(bw,
				`{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{"pc":"0x%x","target":"0x%x","temp":%d}}`,
				ev.Kind.String(), int(ev.Kind)+1, ts, ev.PC, ev.Arg, ev.Temp)
		}
	}
	if _, err := bw.WriteString("]}"); err != nil {
		return err
	}
	return bw.Flush()
}
