// Package ring provides the engine's lock-free bounded queues: the
// stage-to-stage hand-offs of the streaming pipeline (producer →
// workers → commit frontier, and the commit outcomes on their way back
// to the producer) ride on these instead of channels.
//
// Why not channels: a channel hand-off takes a runtime mutex on every
// operation and wakes the peer once per element. At the pipeline's rates
// that mutex — and the goroutine park/unpark churn behind it — is the
// hot path once allocation has been squeezed out (see DESIGN.md §10).
// The rings here are classic power-of-two circular buffers with atomic
// head/tail cursors: an uncontended transfer is two atomic loads and one
// atomic store, no lock, no allocation, and consumers can drain batches
// with a single cursor update.
//
// Memory model. A producer publishes an element by writing the slot and
// then advancing its cursor with an atomic store; a consumer observes
// the cursor with an atomic load before reading the slot. Go's atomics
// are sequentially consistent, so the slot write happens-before every
// read that observed the advanced cursor — the same release/acquire
// pairing a channel provides, without its lock. The MPMC variant is
// Dmitry Vyukov's bounded queue: each cell carries a sequence number
// that both hands out slots to competing producers/consumers (via CAS
// on the cursors) and publishes cell contents (via the cell's own
// atomic sequence store).
//
// Blocking. Rings never busy-spin unboundedly: a Push to a full ring or
// Pop from an empty one spins a few rounds (yielding the processor),
// then parks on a gate — a one-token wake channel guarded by a waiter
// count, so the fast path pays a single atomic load when nobody waits.
// Parked peers are woken when the condition they wait for may hold
// again, and wakes cascade: a woken consumer that leaves elements
// behind re-wakes the gate for the next waiter, which makes the single
// token safe with any number of waiters. On a closed or canceled ring
// every parked caller wakes promptly and returns ErrClosed or
// ErrCanceled; no goroutine can be left parked forever.
//
// Determinism. Rings are FIFO per producer and (for SPSC) globally,
// exactly like the channels they replace; they carry no time-, map-, or
// scheduling-derived values of their own. The package is listed in
// statslint's determinism-critical prefixes so any future drift is
// caught statically.
package ring

import (
	"errors"
	"math/bits"
	"sync/atomic"
)

// ErrClosed is returned by Pop variants once the ring is closed and
// drained, and by Push variants after Close.
var ErrClosed = errors.New("ring: closed")

// ErrCanceled is returned by blocking Push/Pop variants when the
// caller's done channel fires before the operation completes.
var ErrCanceled = errors.New("ring: canceled")

// spinRounds bounds the pre-park spin of blocking operations. Each
// round yields the processor, so on a single-P runtime a full spin
// costs a handful of scheduler passes, not a quantum of busy-waiting.
const spinRounds = 4

// ceilPow2 rounds n up to a power of two (minimum 2: one slot would
// make head==tail ambiguous under the full/empty test used here).
func ceilPow2(n int) uint64 {
	if n < 2 {
		n = 2
	}
	return 1 << uint(bits.Len64(uint64(n-1)))
}

// gate parks and wakes goroutines waiting on a ring condition. The
// waiter count keeps the producer/consumer fast path to one atomic
// load; the one-token channel coalesces redundant wakes and the
// cascade rule (see package doc) covers multiple waiters.
type gate struct {
	waiters atomic.Int32
	ch      chan struct{}
}

func (g *gate) init() { g.ch = make(chan struct{}, 1) }

// wake releases one parked waiter, if any. Safe to call from any
// goroutine; a redundant token is coalesced by the 1-buffer.
func (g *gate) wake() {
	if g.waiters.Load() > 0 {
		select {
		case g.ch <- struct{}{}:
		default:
		}
	}
}

// pad keeps the producer and consumer cursor groups on separate cache
// lines so cross-core cursor traffic does not false-share.
type pad [64]byte
