package telemetry

// Ring is a bounded buffer that overwrites its oldest element when full, so
// the last Cap() pushes of an unbounded stream stay available at a fixed
// memory cost. The event tracer and the audit recorder's
// decision, heatmap and drift-window series all keep their history in one.
// Not safe for concurrent use; owners serialize access.
type Ring[T any] struct {
	buf   []T
	next  int    // slot of the next push
	total uint64 // elements ever pushed
}

// NewRing returns a ring retaining the last capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Push appends v, overwriting the oldest element when full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
}

// Slice returns the retained elements oldest-first, in a new slice.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, r.Len())
	if r.total >= uint64(len(r.buf)) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// At returns the element of the n-th push since the last Reset (0-based),
// for in-place update, or nil once it has been overwritten or if there has
// been no such push.
func (r *Ring[T]) At(n uint64) *T {
	if n >= r.total || r.total-n > uint64(len(r.buf)) {
		return nil
	}
	return &r.buf[n%uint64(len(r.buf))]
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of retained elements.
func (r *Ring[T]) Len() int { return int(min(r.total, uint64(len(r.buf)))) }

// Total returns the number of elements ever pushed (≥ Len()).
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many elements were overwritten by wraparound.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(r.Len()) }

// Reset empties the ring, keeping its capacity.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.next, r.total = 0, 0
}
