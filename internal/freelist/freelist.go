// Package freelist keeps storage that one session has finished with for
// the next session to start on: a small list of spare values, each under
// a key that says what shape it has.
//
// It is not a sync.Pool. A pool's values last until the second garbage
// collection after they were put back, and a process that collects
// between sessions — a server idle between requests, a harness that
// settles the heap before each measured pass — finds the pool empty at
// the start of every session. A List keeps what it holds until it is
// taken, so it is bounded instead: at most Max values, and a value put
// back beyond that is left to the collector.
package freelist

import "sync"

// Max is the most values a List holds.
const Max = 8

// List is a bounded free list of *T under int keys. A list whose values
// all have one shape uses key 0. The zero value is an empty list, safe
// for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	n    int
	keys [Max]int
	vals [Max]*T
}

// Get removes and returns a value put back under key, or nil if the list
// holds none.
func (l *List[T]) Get(key int) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.n - 1; i >= 0; i-- {
		if l.keys[i] != key {
			continue
		}
		v := l.vals[i]
		l.n--
		l.keys[i], l.vals[i] = l.keys[l.n], l.vals[l.n]
		l.vals[l.n] = nil
		return v
	}
	return nil
}

// Put hands v back under key for a later Get. The caller must not use v
// afterwards. A full list drops v.
func (l *List[T]) Put(key int, v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < Max {
		l.keys[l.n], l.vals[l.n] = key, v
		l.n++
	}
}

// Len returns how many values the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
