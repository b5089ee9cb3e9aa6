package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the frontier slot state machine directly, below
// the Pipeline: publish/claim/settle/quiesce/clear under adversarial
// interleavings. The end-to-end ordering property — commits applied in
// input order regardless of validation completion order — is asserted
// against the real pipeline in frontier_order_test.go.

// claim runs the prevalidator's slot protocol for boundary j: CAS-claim
// with both published results re-verified under it, then record the
// verdict. Returns false when the claim was lost or the re-verification
// bailed.
func claim(f *frontier, j int, ok bool, n int) bool {
	if !f.claim(j) {
		return false
	}
	f.record(j, verdict{ok: ok, n: n})
	return true
}

// publishIdx stands in for the assembler and a worker: it names slot
// j&mask's record chunk j and publishes it.
func publishIdx(f *frontier, j int) {
	ck := f.chunk(j)
	ck.j = j
	f.publish(ck)
}

func TestFrontierSettleWithoutVerdict(t *testing.T) {
	f := newFrontier(3)
	_, have := f.settle(1)
	if have {
		t.Fatal("settle on an untouched slot reported a verdict")
	}
	// The slot must now be spent: no claim can start.
	publishIdx(f, 0)
	publishIdx(f, 1)
	if claim(f, 1, true, 1) {
		t.Fatal("claim succeeded on a settled slot")
	}
}

func TestFrontierVerdictRoundTrip(t *testing.T) {
	f := newFrontier(3)
	publishIdx(f, 0)
	publishIdx(f, 1)
	if !claim(f, 1, true, 7) {
		t.Fatal("uncontended claim failed")
	}
	v, have := f.settle(1)
	ok, n := v.ok, v.n
	if !have || !ok || n != 7 {
		t.Fatalf("settle = (%v, %d, have=%v), want (true, 7, true)", ok, n, have)
	}
	// A verdict is consumed exactly once.
	if _, have := f.settle(1); have {
		t.Fatal("second settle re-delivered the verdict")
	}
}

func TestFrontierClaimRequiresBothResults(t *testing.T) {
	f := newFrontier(3)
	publishIdx(f, 1)
	if claim(f, 1, true, 1) {
		t.Fatal("claim succeeded without the predecessor's result")
	}
	publishIdx(f, 0)
	// A predecessor slot recycled for a later lap must be rejected by index.
	publishIdx(f, len(f.slots))
	if claim(f, 1, true, 1) {
		t.Fatal("claim accepted a recycled predecessor slot")
	}
}

func TestFrontierSettleWaitsOutClaim(t *testing.T) {
	f := newFrontier(3)
	publishIdx(f, 0)
	publishIdx(f, 1)
	sl := f.slot(1)
	if !sl.state.CompareAndSwap(valIdle, valClaimed) {
		t.Fatal("setup claim failed")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Hold the claim briefly, then publish the verdict; settle must
		// spin through valClaimed and deliver it.
		time.Sleep(100 * time.Microsecond)
		sl.v = verdict{ok: true, n: 3}
		sl.state.Store(valDone)
	}()
	v, have := f.settle(1)
	ok, n := v.ok, v.n
	<-done
	if !have || !ok || n != 3 {
		t.Fatalf("settle = (%v, %d, have=%v), want the in-flight verdict (true, 3, true)", ok, n, have)
	}
}

func TestFrontierQuiesceSpendsWithoutConsuming(t *testing.T) {
	f := newFrontier(3)
	publishIdx(f, 0)
	publishIdx(f, 1)
	if !claim(f, 1, false, 2) {
		t.Fatal("uncontended claim failed")
	}
	f.quiesce(1)
	if got := f.slot(1).state.Load(); got != valSpent {
		t.Fatalf("state after quiesce = %d, want valSpent", got)
	}
	if _, have := f.settle(1); have {
		t.Fatal("settle consumed a verdict quiesce should have discarded")
	}
	// And once spent, no new claim can reach the slot's states.
	if claim(f, 1, true, 1) {
		t.Fatal("claim succeeded on a quiesced slot")
	}
}

func TestFrontierClearReopensSlot(t *testing.T) {
	f := newFrontier(3)
	publishIdx(f, 0)
	publishIdx(f, 1)
	f.quiesce(1)
	f.clear(1)
	if f.published(1) {
		t.Fatal("clear left a published result behind")
	}
	// Next lap: the same physical slot serves a later boundary.
	lap := 1 + len(f.slots)
	publishIdx(f, lap-1)
	publishIdx(f, lap)
	if !claim(f, lap, true, 9) {
		t.Fatal("claim failed on a cleared slot")
	}
	v, have := f.settle(lap)
	ok, n := v.ok, v.n
	if !have || !ok || n != 9 {
		t.Fatalf("settle = (%v, %d, have=%v) after slot reuse, want (true, 9, true)", ok, n, have)
	}
}

func TestFrontierSingleClaimWinner(t *testing.T) {
	f := newFrontier(4)
	publishIdx(f, 0)
	publishIdx(f, 1)
	var wins atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if claim(f, 1, true, 1) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d claims won, want exactly 1", wins.Load())
	}
}

// TestFrontierStress drives many laps of the full slot protocol under
// -race: publishers make results visible under the pipeline's dispatch
// window invariant, prevalidators race to claim boundaries and record a
// verdict that is a pure function of the boundary index, and a single
// committer settles every boundary in input order. The property checked
// is the one commit correctness rests on: every verdict the committer
// consumes is the verdict for exactly that boundary, no matter which
// lap, goroutine, or interleaving produced it.
func TestFrontierStress(t *testing.T) {
	const (
		workers = 3
		laps    = 400
	)
	f := newFrontier(workers)
	slots := len(f.slots)
	verdict := func(j int) (bool, int) { return j%3 != 0, j%7 + 1 }

	// committedIdx gates publication the way the assembler's outcome
	// window does: chunk j may be published only once applyCommit(j-slots+1)
	// has cleared the slot j occupies.
	var committedIdx atomic.Int64
	var nextPub atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g + 1)))
			for {
				j := int(nextPub.Add(1)) - 1
				if j >= laps {
					return
				}
				for int64(j) >= committedIdx.Load()+int64(slots)-1 {
					runtime.Gosched()
				}
				publishIdx(f, j)
				// Opportunistic prevalidation, like the worker loop:
				// try this boundary and its successor, in random order.
				for _, b := range []int{j, j + 1} {
					if b > 0 && b < laps && r.Intn(2) == 0 {
						ok, n := verdict(b)
						claim(f, b, ok, n)
					}
				}
			}
		}(g)
	}

	for j := 0; j < laps; j++ {
		if j > 0 {
			// Wait for the result to be published, as the results ring
			// guarantees before applyCommit(j) runs.
			for !f.published(j) {
				runtime.Gosched()
			}
			v, have := f.settle(j)
			ok, n := v.ok, v.n
			if have {
				wantOK, wantN := verdict(j)
				if ok != wantOK || n != wantN {
					t.Fatalf("boundary %d consumed verdict (%v, %d), want (%v, %d)",
						j, ok, n, wantOK, wantN)
				}
			}
			f.clear(j - 1)
		}
		committedIdx.Store(int64(j + 1))
	}
	wg.Wait()
}

// BenchmarkFrontier measures one full slot lap. "prevalidated" is the
// fast path the design buys: the verdict is already recorded when the
// committer settles. "inline" is the fallback: the committer finds an
// untouched slot and spends it.
func BenchmarkFrontier(b *testing.B) {
	b.Run("prevalidated", func(b *testing.B) {
		f := newFrontier(4)
		publishIdx(f, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			publishIdx(f, 1)
			claim(f, 1, true, 1)
			f.settle(1)
			f.clear(0)
			f.clear(1)
			publishIdx(f, 0)
		}
	})
	b.Run("inline", func(b *testing.B) {
		f := newFrontier(4)
		publishIdx(f, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.settle(1)
			f.clear(1)
		}
	})
}
