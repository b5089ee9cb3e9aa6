package engine

import (
	"math/bits"
	"sync"
)

// slabs recycles the pipeline's per-chunk slices — input chunks filled by
// Push and output buffers filled by workers — through the commit stage. A chunk's input slab is dead once its successor has been
// committed (the successor's alternative producer and a possible re-exec
// are its last readers); an output slab is dead once its outputs have
// been flushed downstream.
//
// Free lists are kept per power-of-two size class, seeded from the
// chunk sizes the pipeline actually observes: every allocation is
// rounded up to its class capacity, so when adaptive sizing retunes the
// chunk size, retired slabs of the old class still serve requests that
// round to the same class instead of being burned on a capacity
// mismatch. A returned slab's capacity is always at least the requested
// size — Push reslices it to the chunk's length and writes by index.
// Each class list is bounded: under steady state the pipeline
// holds about one slab per in-flight chunk, and a burst beyond the
// limit just falls back to the allocator.
const slabClasses = 16 // classes 0..15: capacities 1, 2, 4, ... 32768

type slabs struct {
	mu    sync.Mutex
	ins   [slabClasses][][]Input
	outs  [slabClasses][][]Output
	limit int // per class
}

// slabClass returns the size class for a request: the smallest c with
// 1<<c >= size. Requests beyond the largest class share it (their slabs
// keep their exact capacity and are reused only when large enough).
func slabClass(size int) int {
	if size <= 1 {
		return 0
	}
	c := bits.Len(uint(size - 1))
	if c >= slabClasses {
		return slabClasses - 1
	}
	return c
}

// slabCap returns the allocation capacity for a request: its class
// capacity, so the slab is reusable for any same-class request.
func slabCap(size int) int {
	if c := slabClass(size); c < slabClasses-1 {
		return 1 << c
	}
	return size
}

// takeSlab returns an empty slab with capacity at least size, recycled
// from the request's size class in lists when possible.
func takeSlab[T any](mu *sync.Mutex, lists *[slabClasses][][]T, size int) []T {
	list := &lists[slabClass(size)]
	mu.Lock()
	n := len(*list)
	if n == 0 {
		mu.Unlock()
		return make([]T, 0, slabCap(size))
	}
	b := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	mu.Unlock()
	if cap(b) < size {
		// The largest class holds mixed capacities; this one is too small.
		return make([]T, 0, slabCap(size))
	}
	return b[:0]
}

// putSlab retires b into its size class in lists if the class has room.
func putSlab[T any](mu *sync.Mutex, lists *[slabClasses][][]T, b []T, limit int) {
	if cap(b) == 0 {
		return
	}
	list := &lists[slabClass(cap(b))]
	mu.Lock()
	if len(*list) < limit {
		*list = append(*list, b[:0])
	}
	mu.Unlock()
}

// takeIn returns an empty input slab with capacity at least size.
func (s *slabs) takeIn(size int) []Input { return takeSlab(&s.mu, &s.ins, size) }

// putIn retires a dead input slab. The caller must hold the only live
// reference — no window or job may still alias it.
func (s *slabs) putIn(b []Input) { putSlab(&s.mu, &s.ins, b, s.limit) }

// takeOut returns an empty output slab with capacity at least size.
func (s *slabs) takeOut(size int) []Output { return takeSlab(&s.mu, &s.outs, size) }

// putOut retires a flushed output slab.
func (s *slabs) putOut(b []Output) { putSlab(&s.mu, &s.outs, b, s.limit) }
