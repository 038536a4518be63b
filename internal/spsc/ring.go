// Package spsc provides a bounded single-producer single-consumer ring:
// the handoff primitive between a sentinel stream's goroutines — its
// transport (which owns the socket and fills read blocks), its scanner
// (which owns the batch scanner) and its detector (which owns the
// session state and the event stream). Exactly one goroutine may push
// and exactly one may pop; the ring enforces nothing and corrupts
// silently if that contract is broken, which is why it lives behind the
// sentinel rather than in a general toolbox.
//
// That contract is also why the ring stops at the stream boundary in
// the sentinel's sharded fan-in: within one stream each handoff is
// genuinely single-producer single-consumer, so blocks and batches ride
// rings; but an event shard aggregates events from every stream pinned
// to it — many producers, one shard writer — so the shard queues are
// bounded channels (MPSC), not rings. Use this package only where both
// singulars hold.
//
// The fast path is two atomic loads and one atomic store per operation
// — no locks, no channel send. Channels appear only on the blocking
// edges (full ring, empty ring), each a capacity-1 notification that
// collapses any number of signals into one wakeup.
package spsc

import "sync/atomic"

// Ring is a bounded SPSC queue of T. The zero value is not usable; call
// New.
type Ring[T any] struct {
	buf  []T
	mask uint64

	// head is the next position to pop (advanced only by the consumer);
	// tail the next to push (advanced only by the producer). Both grow
	// without wrapping — position modulo len(buf) is the slot — so
	// tail-head is always the queue depth. The atomic store after a slot
	// write is the release edge that publishes the element; the matching
	// load is the acquire.
	head atomic.Uint64
	tail atomic.Uint64

	// notEmpty wakes a consumer blocked in Pop; notFull a producer
	// blocked in Push. Capacity 1: posting to an already-signalled ring
	// is a no-op, so signalling is cheap and never blocks.
	notEmpty chan struct{}
	notFull  chan struct{}

	// done is closed by Close; it both unblocks waiters and, once the
	// ring drains, turns Pop into a terminal false.
	done   chan struct{}
	closed atomic.Bool
}

// New returns a ring holding at least capacity elements (rounded up to
// a power of two, minimum 2).
func New[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{
		buf:      make([]T, n),
		mask:     uint64(n - 1),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// TryPush enqueues v if there is room, reporting whether it did. Safe
// only from the single producer.
func (r *Ring[T]) TryPush(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	select {
	case r.notEmpty <- struct{}{}:
	default:
	}
	return true
}

// Push enqueues v, blocking while the ring is full. It returns false
// without enqueueing if the ring is closed (before or while blocked).
func (r *Ring[T]) Push(v T) bool {
	for {
		if r.closed.Load() {
			return false
		}
		if r.TryPush(v) {
			return true
		}
		select {
		case <-r.notFull:
		case <-r.done:
			return false
		}
	}
}

// TryPop dequeues the oldest element if one is buffered. The vacated
// slot is zeroed so the ring never pins popped elements.
func (r *Ring[T]) TryPop() (T, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		var zero T
		return zero, false
	}
	v := r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero
	r.head.Store(head + 1)
	select {
	case r.notFull <- struct{}{}:
	default:
	}
	return v, true
}

// Pop dequeues the oldest element, blocking while the ring is empty. It
// returns false only when the ring is closed and fully drained — every
// element pushed before Close is still delivered.
func (r *Ring[T]) Pop() (T, bool) {
	for {
		if v, ok := r.TryPop(); ok {
			return v, true
		}
		select {
		case <-r.notEmpty:
		case <-r.done:
			// Closed: one final drain pass, since the producer's last
			// push may have raced the close signal.
			return r.TryPop()
		}
	}
}

// Close marks the ring closed, waking blocked producers and consumers.
// Elements already buffered remain poppable; further pushes fail. Close
// is idempotent. The producer should close, after its final Push — a
// consumer-side Close racing an in-flight Push may drop that element.
func (r *Ring[T]) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.done)
	}
}
