// Package ring provides the growable FIFO ring buffer used by the
// simulator's hot queues (L2 partition input/response queues, the SM's
// completion queue, cache miss queues, interconnect ports).
//
// The simulator's queues share one access pattern: push at the tail,
// pop at the head, occasionally peek, with bursty occupancy. The naive
// implementations this replaces either copy-shifted the whole slice on
// every pop (O(n) per element) or tracked a head index and periodically
// compacted — per-queue ad-hoc code repeated in four packages. A
// power-of-two ring does both in O(1) with no steady-state allocation:
// storage is only reallocated when occupancy exceeds every previous
// high-water mark.
//
// That storage is also what a retired machine hands to the next one
// (see gpu.New): every engine package builds its slices through Zeroed
// or Kept and empties its rings with Reset, so an initialiser runs the
// same lines on a zero value and on recycled memory and only a larger
// shape allocates.
package ring

// Zeroed returns n zero values in s's backing array, or in a new one
// when that is too small. The whole array is cleared, not just the first
// n elements, so nothing it pointed to stays reachable through it.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[:cap(s)])
	return s[:n]
}

// Kept returns s at length n with its elements as they are — also those
// a shorter length had hidden — appending zero values when the backing
// array is too small. It is Zeroed for elements that own storage of
// their own (a slice of rings, of structs holding slices): the caller
// initialises each element in place.
func Kept[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// Ring is a growable FIFO queue. The zero value is ready to use. Ring
// is not safe for concurrent use.
type Ring[T any] struct {
	buf  []T // len(buf) is always 0 or a power of two
	head int
	n    int
}

// minCap is the initial allocation; small enough that idle queues cost
// nothing much, large enough that active queues stop growing quickly.
const minCap = 16

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// grow doubles the storage, linearizing the live elements.
func (r *Ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap < minCap {
		newCap = minCap
	}
	buf := make([]T, newCap)
	if r.n > 0 {
		m := copy(buf, r.buf[r.head:])
		copy(buf[m:], r.buf[:r.head])
	}
	r.buf = buf
	r.head = 0
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring;
// guard with Len or use TryPop.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ring: Pop on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// TryPop removes and returns the head element, reporting false on an
// empty ring.
func (r *Ring[T]) TryPop() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.Pop(), true
}

// Peek returns the head element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("ring: Peek on empty ring")
	}
	return r.buf[r.head]
}

// At returns the i-th element from the head (At(0) == Peek). It panics
// when i is out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("ring: At out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Snapshot returns the queued elements oldest-first, each mapped through
// fn. A nil fn copies elements as-is (correct for value types); element
// types holding pointers into pooled storage must pass a deep-copying fn
// so the returned slice owns its memory (copy-on-snapshot discipline).
// The ring is unchanged.
func (r *Ring[T]) Snapshot(fn func(T) T) []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		v := r.buf[(r.head+i)&(len(r.buf)-1)]
		if fn != nil {
			v = fn(v)
		}
		out[i] = v
	}
	return out
}

// Restore replaces the ring's contents with elems (oldest first), each
// mapped through fn. Pass the same kind of deep-copying fn as Snapshot
// so a single snapshot can be restored into several rings without any of
// them sharing storage. Existing storage is reused when large enough.
func (r *Ring[T]) Restore(elems []T, fn func(T) T) {
	r.Reset()
	for _, v := range elems {
		if fn != nil {
			v = fn(v)
		}
		r.Push(v)
	}
}

// Reset discards all elements, keeping the storage: the ring's in-place
// initialiser, and on a zero value a no-op. Live references are zeroed
// (Pop zeroes the slot it vacates), so a reset ring's backing array
// holds nothing.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}
