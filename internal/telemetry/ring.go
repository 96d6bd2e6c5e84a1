package telemetry

// Ring is a bounded buffer that overwrites its oldest element when full, so
// the last Cap() pushes of an unbounded stream stay available at a fixed
// memory cost. The event tracer and the audit recorders' decision, heatmap
// and drift-window series all keep their history in one. Not safe for
// concurrent use; owners serialize access.
type Ring[T any] struct {
	buf   []T
	head  int    // index of the oldest element once full
	total uint64 // elements ever pushed
}

// NewRing returns a ring retaining the last capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Push appends v, overwriting the oldest element when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
	}
	r.total++
}

// Slice returns the retained elements oldest-first, in a new slice.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.head:]...), r.buf[:r.head]...)
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return cap(r.buf) }

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the number of elements ever pushed (≥ Len()).
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many elements were overwritten by wraparound.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Reset empties the ring, keeping its capacity.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf, r.head, r.total = r.buf[:0], 0, 0
}
