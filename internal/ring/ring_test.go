package ring

import (
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

	// The second cancellation channel releases a parked Pop as the first does.
	alt := make(chan struct{})
	go func() {
		_, err := q.Pop(nil, alt)
		got <- err
	}()
	close(alt)
	if err := <-got; err != ErrCanceled {
		t.Fatalf("Pop canceled through its second channel: %v, want ErrCanceled", err)
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
