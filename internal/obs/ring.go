package obs

// ring is the fixed-capacity buffer behind the flight recorder and the
// trace store: once full, each put overwrites the oldest value. It
// allocates only at construction, so a put is a slot store and an index
// bump. It does no locking; each owner guards it with the mutex that
// also covers the state the owner keeps beside it.
type ring[T any] struct {
	buf     []T
	next    int    // slot the next put writes
	filled  bool   // every slot has been written at least once
	dropped uint64 // values overwritten after the ring filled
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// put writes v over the oldest value and returns the slot it wrote and
// the value it replaced (the zero T while the ring is filling).
func (r *ring[T]) put(v T) (slot int, old T) {
	slot, old = r.next, r.buf[r.next]
	if r.filled {
		r.dropped++
	}
	r.buf[slot] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.filled = 0, true
	}
	return slot, old
}

// len returns the number of values held.
func (r *ring[T]) len() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// newestFirst calls fn on each held value, newest first, until fn returns
// false.
func (r *ring[T]) newestFirst(fn func(v *T) bool) {
	for i := 1; i <= r.len(); i++ {
		if !fn(&r.buf[(r.next-i+len(r.buf))%len(r.buf)]) {
			return
		}
	}
}
