package ring

import (
	"runtime"
	"sync/atomic"
)

// SPSC is a bounded single-producer single-consumer ring. Exactly one
// goroutine may call the producer side (TryPush/Push/Close) and exactly
// one the consumer side (TryPop/Pop/PopBatch) at a time; the two sides
// never lock against each other. Capacity is rounded up to a power of
// two. The zero value is not usable; call NewSPSC.
type SPSC[T any] struct {
	mask uint64
	buf  []T

	_          pad
	head       atomic.Uint64 // next slot to pop; consumer-owned
	cachedTail uint64        // consumer's last view of tail
	_          pad
	tail       atomic.Uint64 // next slot to push; producer-owned
	cachedHead uint64        // producer's last view of head
	_          pad

	closed   atomic.Bool
	closeCh  chan struct{} // closed by Close: wakes every parked caller
	notEmpty gate          // consumer parks here
	notFull  gate          // producer parks here
}

// NewSPSC returns an empty ring with capacity ≥ capacity, rounded up to
// a power of two.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := ceilPow2(capacity)
	q := &SPSC[T]{mask: n - 1, buf: make([]T, n), closeCh: make(chan struct{})}
	q.notEmpty.init()
	q.notFull.init()
	return q
}

// Cap returns the ring's capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of buffered elements at this instant.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// TryPush appends v without blocking. It reports false when the ring is
// full or closed.
func (q *SPSC[T]) TryPush(v T) bool {
	if q.closed.Load() {
		return false
	}
	t := q.tail.Load()
	if t-q.cachedHead >= uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1) // publish: slot write happens-before this store
	q.notEmpty.wake()
	return true
}

// Push appends v, parking while the ring is full. done (which may be
// nil) cancels the wait: Push then returns ErrCanceled. Pushing to a
// closed ring returns ErrClosed.
func (q *SPSC[T]) Push(done <-chan struct{}, v T) error {
	for spin := 0; ; spin++ {
		if q.TryPush(v) {
			return nil
		}
		if q.closed.Load() {
			return ErrClosed
		}
		if spin < spinRounds {
			runtime.Gosched()
			continue
		}
		q.notFull.waiters.Add(1)
		// Recheck after arming: a consumer that popped before seeing the
		// waiter count would otherwise never wake us (store-load fence
		// via the seq-cst atomics).
		if q.TryPush(v) {
			q.notFull.waiters.Add(-1)
			return nil
		}
		if q.closed.Load() {
			q.notFull.waiters.Add(-1)
			return ErrClosed
		}
		select {
		case <-q.notFull.ch:
		case <-q.closeCh:
		case <-done:
			q.notFull.waiters.Add(-1)
			return ErrCanceled
		}
		q.notFull.waiters.Add(-1)
	}
}

// TryPop removes the oldest element without blocking.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	// >= not ==: PopBatch advances head without refreshing cachedTail,
	// so the cache may lag arbitrarily far behind the cursor.
	if h >= q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h >= q.cachedTail {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // drop the reference for GC
	q.head.Store(h + 1)
	q.notFull.wake()
	return v, true
}

// Pop removes the oldest element, parking while the ring is empty. It
// returns ErrClosed once the ring is closed and drained, ErrCanceled if
// done (which may be nil) fires first. A caller with two reasons to give
// up — the pipeline's producer has its call's context and the session's
// — passes the second channel as done2; the caller tells them apart by
// inspecting its contexts.
func (q *SPSC[T]) Pop(done <-chan struct{}, done2 ...<-chan struct{}) (T, error) {
	var zero T
	var alt <-chan struct{}
	if len(done2) > 0 {
		alt = done2[0]
	}
	for spin := 0; ; spin++ {
		if v, ok := q.TryPop(); ok {
			return v, nil
		}
		if q.closed.Load() {
			// Drain race: the producer may have pushed between our TryPop
			// and its Close.
			if v, ok := q.TryPop(); ok {
				return v, nil
			}
			return zero, ErrClosed
		}
		if spin < spinRounds {
			runtime.Gosched()
			continue
		}
		q.notEmpty.waiters.Add(1)
		if v, ok := q.TryPop(); ok {
			q.notEmpty.waiters.Add(-1)
			return v, nil
		}
		if q.closed.Load() {
			q.notEmpty.waiters.Add(-1)
			if v, ok := q.TryPop(); ok {
				return v, nil
			}
			return zero, ErrClosed
		}
		select {
		case <-q.notEmpty.ch:
		case <-q.closeCh:
		case <-done:
			q.notEmpty.waiters.Add(-1)
			return zero, ErrCanceled
		case <-alt:
			q.notEmpty.waiters.Add(-1)
			return zero, ErrCanceled
		}
		q.notEmpty.waiters.Add(-1)
	}
}

// PopBatch moves up to len(dst) buffered elements into dst with one
// cursor update, returning how many were moved (possibly 0). It never
// blocks; pair it with Pop for the first element to wait for a wave.
func (q *SPSC[T]) PopBatch(dst []T) int {
	var zero T
	h := q.head.Load()
	t := q.tail.Load()
	q.cachedTail = t
	n := int(t - h)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = q.buf[(h+uint64(i))&q.mask]
		q.buf[(h+uint64(i))&q.mask] = zero
	}
	q.head.Store(h + uint64(n))
	q.notFull.wake()
	return n
}

// Close marks the stream's end. Parked producers and consumers wake;
// remaining elements stay poppable, after which Pop returns ErrClosed.
// Close is idempotent and producer-side: call it only from the
// producing goroutine (or after it has stopped).
func (q *SPSC[T]) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.closeCh)
	}
}

// Reset returns the ring to the state NewSPSC leaves it in: empty and
// open, at the same capacity. It is for a ring nobody uses any more:
// both sides' last calls have returned, and happened before Reset.
func (q *SPSC[T]) Reset() {
	clear(q.buf)
	q.head.Store(0)
	q.tail.Store(0)
	q.cachedHead, q.cachedTail = 0, 0
	if q.closed.Load() {
		q.closeCh = make(chan struct{})
		q.closed.Store(false)
	}
	q.notEmpty.reset()
	q.notFull.reset()
}
