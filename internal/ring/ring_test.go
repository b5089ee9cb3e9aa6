package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestRingCeilPow2(t *testing.T) {
	cases := map[int]uint64{-1: 2, 0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 16: 16, 17: 32, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRingSPSCFIFOWraparound(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	// Many laps around the 4-slot buffer, interleaving push and pop so
	// the cursors wrap repeatedly.
	next := 0
	for i := 0; i < 1000; i++ {
		for q.TryPush(i * 3) {
			i++
		}
		i--
		for {
			v, ok := q.TryPop()
			if !ok {
				break
			}
			if v != next*3 {
				t.Fatalf("pop = %d, want %d", v, next*3)
			}
			next++
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestRingSPSCConcurrentStress(t *testing.T) {
	const n = 20000
	q := NewSPSC[int](8)
	done := make(chan struct{})
	go func() {
		defer q.Close()
		for i := 0; i < n; i++ {
			if err := q.Push(done, i); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	for want := 0; ; {
		v, err := q.Pop(done)
		if err == ErrClosed {
			if want != n {
				t.Fatalf("closed after %d elements, want %d", want, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		if v != want {
			t.Fatalf("pop = %d, want %d (FIFO violated)", v, want)
		}
		want++
	}
}

func TestRingSPSCPopBatch(t *testing.T) {
	q := NewSPSC[int](16)
	for i := 0; i < 10; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	dst := make([]int, 4)
	if n := q.PopBatch(dst); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
	big := make([]int, 32)
	if n := q.PopBatch(big); n != 6 {
		t.Fatalf("PopBatch = %d, want 6", n)
	}
	for i := 0; i < 6; i++ {
		if big[i] != i+4 {
			t.Fatalf("big[%d] = %d, want %d", i, big[i], i+4)
		}
	}
	if n := q.PopBatch(big); n != 0 {
		t.Fatalf("PopBatch on empty = %d", n)
	}
	// Regression: PopBatch advances head without touching TryPop's
	// cachedTail; a stale equality-based emptiness check would now read
	// phantom (unpublished) slots.
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop after PopBatch drain returned phantom %d", v)
	}
	if !q.TryPush(42) {
		t.Fatal("push after drain failed")
	}
	if v, ok := q.TryPop(); !ok || v != 42 {
		t.Fatalf("TryPop = %d,%v, want 42,true", v, ok)
	}
}

func TestRingSPSCCloseWhileBlocked(t *testing.T) {
	// Consumer parked on empty ring wakes with ErrClosed.
	q := NewSPSC[int](2)
	got := make(chan error, 1)
	go func() {
		_, err := q.Pop(nil)
		got <- err
	}()
	q.Close()
	if err := <-got; err != ErrClosed {
		t.Fatalf("parked Pop after Close: %v, want ErrClosed", err)
	}

	// Producer parked on full ring wakes with ErrClosed.
	q2 := NewSPSC[int](2)
	for q2.TryPush(0) {
	}
	go func() {
		got <- q2.Push(nil, 99)
	}()
	q2.Close()
	if err := <-got; err != ErrClosed {
		t.Fatalf("parked Push after Close: %v, want ErrClosed", err)
	}
}

func TestRingSPSCCancelWhileBlocked(t *testing.T) {
	q := NewSPSC[int](2)
	done := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := q.Pop(done)
		got <- err
	}()
	close(done)
	if err := <-got; err != ErrCanceled {
		t.Fatalf("canceled Pop: %v, want ErrCanceled", err)
	}

	q2 := NewSPSC[int](2)
	for q2.TryPush(0) {
	}
	done2 := make(chan struct{})
	go func() {
		got <- q2.Push(done2, 99)
	}()
	close(done2)
	if err := <-got; err != ErrCanceled {
		t.Fatalf("canceled Push: %v, want ErrCanceled", err)
	}
}

func TestRingSPSCDrainAfterClose(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 5; i++ {
		q.TryPush(i)
	}
	q.Close()
	for i := 0; i < 5; i++ {
		v, err := q.Pop(nil)
		if err != nil || v != i {
			t.Fatalf("drain pop %d: v=%d err=%v", i, v, err)
		}
	}
	if _, err := q.Pop(nil); err != ErrClosed {
		t.Fatalf("pop after drain: %v, want ErrClosed", err)
	}
	if err := q.Push(nil, 1); err != ErrClosed {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
}

func TestRingMPMCWraparound(t *testing.T) {
	q := NewMPMC[int](4)
	for lap := 0; lap < 100; lap++ {
		for i := 0; i < 4; i++ {
			if !q.TryPush(lap*4 + i) {
				t.Fatalf("push lap %d i %d failed", lap, i)
			}
		}
		if q.TryPush(-1) {
			t.Fatal("push to full ring succeeded")
		}
		for i := 0; i < 4; i++ {
			v, ok := q.TryPop()
			if !ok || v != lap*4+i {
				t.Fatalf("pop lap %d i %d: v=%d ok=%v", lap, i, v, ok)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Fatal("pop from empty ring succeeded")
		}
	}
}

func TestRingMPMCConcurrentStress(t *testing.T) {
	// P producers each push their own ascending sequence; C consumers
	// drain. Checks: no element lost or duplicated, and per-producer
	// FIFO order holds.
	const (
		producers = 4
		consumers = 4
		perProd   = 2500
	)
	q := NewMPMC[[2]int](8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if err := q.Push(nil, [2]int{p, i}); err != nil {
					t.Errorf("producer %d push %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()

	var mu sync.Mutex
	lastSeen := make([][]int, consumers)
	counts := make([]int, consumers)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			last := make([]int, producers)
			for i := range last {
				last[i] = -1
			}
			n := 0
			for {
				v, err := q.Pop(nil)
				if err == ErrClosed {
					mu.Lock()
					lastSeen[c] = last
					counts[c] = n
					mu.Unlock()
					return
				}
				if err != nil {
					t.Errorf("consumer %d pop: %v", c, err)
					return
				}
				p, seq := v[0], v[1]
				if seq <= last[p] {
					t.Errorf("consumer %d: producer %d seq %d after %d (per-producer FIFO violated)", c, p, seq, last[p])
					return
				}
				last[p] = seq
				n++
			}
		}(c)
	}
	cwg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != producers*perProd {
		t.Fatalf("consumed %d elements, want %d", total, producers*perProd)
	}
}

func TestRingMPMCCloseWhileBlocked(t *testing.T) {
	q := NewMPMC[int](2)
	const parked = 3
	got := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() {
			_, err := q.Pop(nil)
			got <- err
		}()
	}
	q.Close()
	for i := 0; i < parked; i++ {
		if err := <-got; err != ErrClosed {
			t.Fatalf("parked Pop %d after Close: %v, want ErrClosed", i, err)
		}
	}

	q2 := NewMPMC[int](2)
	for q2.TryPush(0) {
	}
	for i := 0; i < parked; i++ {
		go func() {
			got <- q2.Push(nil, 99)
		}()
	}
	q2.Close()
	for i := 0; i < parked; i++ {
		if err := <-got; err != ErrClosed {
			t.Fatalf("parked Push %d after Close: %v, want ErrClosed", i, err)
		}
	}
}

func TestRingMPMCCancelWhileBlocked(t *testing.T) {
	q := NewMPMC[int](2)
	done := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := q.Pop(done)
		got <- err
	}()
	close(done)
	if err := <-got; err != ErrCanceled {
		t.Fatalf("canceled Pop: %v, want ErrCanceled", err)
	}
}

// parked waits until the ring's consumer has armed its gate.
func parked[T any](q *SPSC[T]) {
	for q.notEmpty.waiters.Load() == 0 {
		runtime.Gosched()
	}
}

func TestRingSPSCAwaitWakesOncePerBatch(t *testing.T) {
	q := NewSPSC[int](16)
	got := make(chan error, 1)
	go func() { got <- q.Await(nil, 5) }()
	parked(q)
	// The consumer asked for five: four must not wake it.
	for i := 0; i < 4; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
		if len(q.notEmpty.ch) != 0 {
			t.Fatalf("push %d of 5 left a wake token for a consumer waiting for 5", i+1)
		}
	}
	select {
	case err := <-got:
		t.Fatalf("Await(5) returned %v with 4 buffered", err)
	default:
	}
	q.TryPush(4)
	if err := <-got; err != nil {
		t.Fatalf("Await(5) with 5 buffered: %v", err)
	}
	dst := make([]int, 8)
	if n := q.PopBatch(dst); n != 5 {
		t.Fatalf("PopBatch after Await(5) = %d, want 5", n)
	}
	// A plain Pop still wakes on the first element, whatever an earlier
	// Await published.
	go func() { _, err := q.Pop(nil); got <- err }()
	parked(q)
	q.TryPush(9)
	if err := <-got; err != nil {
		t.Fatalf("Pop after Await: %v", err)
	}
}

func TestRingSPSCAwaitClampsToCapacity(t *testing.T) {
	q := NewSPSC[int](4)
	got := make(chan error, 1)
	go func() { got <- q.Await(nil, 100) }()
	for i := 0; i < 4; i++ {
		if err := q.Push(nil, i); err != nil {
			t.Fatal(err)
		}
	}
	// The ring is full: a producer would park now, so the consumer must
	// be released to make room.
	if err := <-got; err != nil {
		t.Fatalf("Await(100) on a full 4-ring: %v", err)
	}
}

func TestRingSPSCAwaitCloseAndCancel(t *testing.T) {
	q := NewSPSC[int](8)
	q.TryPush(1)
	q.TryPush(2)
	got := make(chan error, 1)
	go func() { got <- q.Await(nil, 5) }()
	parked(q)
	q.Close()
	if err := <-got; err != ErrClosed {
		t.Fatalf("Await(5) closed with 2 buffered: %v, want ErrClosed", err)
	}
	if n := q.PopBatch(make([]int, 8)); n != 2 {
		t.Fatalf("PopBatch after the close = %d, want the 2 buffered", n)
	}
	// Closed with enough buffered is not an error: the batch is there.
	q2 := NewSPSC[int](8)
	q2.TryPush(1)
	q2.Close()
	if err := q2.Await(nil, 1); err != nil {
		t.Fatalf("Await(1) on a closed ring holding 1: %v", err)
	}

	q3 := NewSPSC[int](8)
	done := make(chan struct{})
	go func() { got <- q3.Await(done, 3) }()
	parked(q3)
	q3.TryPush(1) // below the mark: no wake
	close(done)
	if err := <-got; err != ErrCanceled {
		t.Fatalf("canceled Await: %v, want ErrCanceled", err)
	}
}

// TestRingSPSCAwaitBurstStress pairs random push bursts with random batch
// waits, some wider than the ring: every element arrives once, in order,
// and neither side is left parked.
func TestRingSPSCAwaitBurstStress(t *testing.T) {
	const n = 50000
	q := NewSPSC[int](8)
	go func() {
		defer q.Close()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < n; {
			for burst := 1 + r.Intn(20); burst > 0 && i < n; burst-- {
				if err := q.Push(nil, i); err != nil {
					t.Errorf("push %d: %v", i, err)
					return
				}
				i++
			}
			runtime.Gosched()
		}
	}()
	r := rand.New(rand.NewSource(2))
	buf := make([]int, 32)
	for want := 0; ; {
		k := 1 + r.Intn(len(buf))
		err := q.Await(nil, k)
		got := q.PopBatch(buf[:k])
		for _, v := range buf[:got] {
			if v != want {
				t.Fatalf("popped %d, want %d (FIFO violated)", v, want)
			}
			want++
		}
		if err == ErrClosed {
			if want += drain(t, q, want); want != n {
				t.Fatalf("closed after %d elements, want %d", want, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("await: %v", err)
		}
	}
}

// drain pops what a closed ring still holds, checking order from want on.
func drain(t *testing.T, q *SPSC[int], want int) int {
	n := 0
	for {
		v, ok := q.TryPop()
		if !ok {
			return n
		}
		if v != want+n {
			t.Fatalf("drained %d, want %d", v, want+n)
		}
		n++
	}
}
