package ring

import (
	"runtime"
	"sync/atomic"
)

// cell is one MPMC slot. seq is the Vyukov sequence number: it hands
// the slot to exactly one producer (seq == turn) or consumer
// (seq == turn+1) per lap and publishes the value written into it.
type cell[T any] struct {
	seq atomic.Uint64
	v   T
}

// MPMC is Dmitry Vyukov's bounded multi-producer multi-consumer queue.
// Any number of goroutines may push and pop concurrently; per-producer
// FIFO order is preserved (a single producer's elements pop in push
// order). Capacity is rounded up to a power of two. The zero value is
// not usable; call NewMPMC.
type MPMC[T any] struct {
	mask uint64
	buf  []cell[T]

	_   pad
	enq atomic.Uint64 // next slot to claim for push
	_   pad
	deq atomic.Uint64 // next slot to claim for pop
	_   pad

	closed   atomic.Bool
	closeCh  chan struct{}
	notEmpty gate
	notFull  gate
}

// NewMPMC returns an empty ring with capacity ≥ capacity, rounded up
// to a power of two.
func NewMPMC[T any](capacity int) *MPMC[T] {
	n := ceilPow2(capacity)
	q := &MPMC[T]{mask: n - 1, buf: make([]cell[T], n), closeCh: make(chan struct{})}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	q.notEmpty.init()
	q.notFull.init()
	return q
}

// Cap returns the ring's capacity.
func (q *MPMC[T]) Cap() int { return len(q.buf) }

// Len returns the approximate number of buffered elements.
func (q *MPMC[T]) Len() int {
	n := int(q.enq.Load() - q.deq.Load())
	if n < 0 {
		return 0
	}
	return n
}

// TryPush appends v without blocking. It reports false when the ring
// is full or closed.
func (q *MPMC[T]) TryPush(v T) bool {
	if q.closed.Load() {
		return false
	}
	pos := q.enq.Load()
	for {
		c := &q.buf[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos: // slot free for this lap: try to claim it
			if q.enq.CompareAndSwap(pos, pos+1) {
				c.v = v
				c.seq.Store(pos + 1) // publish
				q.notEmpty.wake()
				return true
			}
			pos = q.enq.Load()
		case seq < pos: // slot still holds the previous lap's value: full
			return false
		default: // another producer advanced past us
			pos = q.enq.Load()
		}
	}
}

// Push appends v, parking while the ring is full. done (which may be
// nil) cancels the wait with ErrCanceled; a closed ring returns
// ErrClosed.
func (q *MPMC[T]) Push(done <-chan struct{}, v T) error {
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
		// Recheck after arming so a consumer that freed a slot before
		// observing the waiter count cannot strand us.
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
			// Cascade: more than one producer may be parked and one free
			// slot woke only us; if the ring has more room, pass it on.
			q.notFull.wake()
		case <-q.closeCh:
		case <-done:
			q.notFull.waiters.Add(-1)
			return ErrCanceled
		}
		q.notFull.waiters.Add(-1)
	}
}

// TryPop removes the oldest claimable element without blocking.
func (q *MPMC[T]) TryPop() (T, bool) {
	var zero T
	pos := q.deq.Load()
	for {
		c := &q.buf[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1: // slot holds this lap's value: try to claim it
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := c.v
				c.v = zero // drop the reference for GC
				c.seq.Store(pos + q.mask + 1)
				q.notFull.wake()
				return v, true
			}
			pos = q.deq.Load()
		case seq <= pos: // slot not yet published: empty
			return zero, false
		default: // another consumer advanced past us
			pos = q.deq.Load()
		}
	}
}

// Pop removes the oldest element, parking while the ring is empty. It
// returns ErrClosed once the ring is closed and drained, ErrCanceled
// if done fires first.
func (q *MPMC[T]) Pop(done <-chan struct{}) (T, error) {
	var zero T
	for spin := 0; ; spin++ {
		if v, ok := q.TryPop(); ok {
			return v, nil
		}
		if q.closed.Load() {
			// Drain race: a producer may have pushed between our TryPop
			// and the Close.
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
			q.notEmpty.wake() // cascade to other parked consumers
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
		}
		q.notEmpty.waiters.Add(-1)
	}
}

// Close marks the stream's end: parked callers wake, buffered elements
// stay poppable, then Pop returns ErrClosed. Idempotent; safe from any
// goroutine.
func (q *MPMC[T]) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.closeCh)
	}
}

// Reset returns the ring to the state NewMPMC leaves it in: empty and
// open, at the same capacity. It is for a ring nobody uses any more:
// every Push, Pop and Close has returned, and happened before Reset.
func (q *MPMC[T]) Reset() {
	var zero T
	for i := range q.buf {
		q.buf[i].v = zero
		q.buf[i].seq.Store(uint64(i))
	}
	q.enq.Store(0)
	q.deq.Store(0)
	if q.closed.Load() {
		q.closeCh = make(chan struct{})
		q.closed.Store(false)
	}
	q.notEmpty.reset()
	q.notFull.reset()
}
