package rng

// This file is the property test behind statslint/detpath's seeded-rand
// exemption: detpath flags math/rand (a single global, lock-ordered
// source whose draws depend on goroutine scheduling) but exempts
// internal/rng because a Stream's output is a pure function of its seed
// and derivation path — no shared state, no scheduling dependence. The
// tests below establish that property under the adversarial conditions
// the STATS schedulers create: many goroutines drawing concurrently
// from their own derived streams, under arbitrary interleavings, with
// derivations racing against parent draws.

import (
	"sync"
	"testing"
)

// drawAll advances a stream n times and returns the full sequence.
func drawAll(r *Stream, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// TestPropertySameSeedIdenticalAcrossInterleavings runs two replicas of
// the same seeded fan-out — one goroutine per derived stream — many
// times. Whatever order the scheduler picks, each derived stream's
// sequence must come out identical in every replica, because a derived
// stream shares no state with its siblings or its parent.
func TestPropertySameSeedIdenticalAcrossInterleavings(t *testing.T) {
	const (
		seed       = uint64(0xfeed)
		goroutines = 8
		draws      = 256
		replicas   = 16
	)
	run := func() [][]uint64 {
		parent := New(seed)
		seqs := make([][]uint64, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			r := parent.DeriveN("worker", g)
			wg.Add(1)
			go func(g int, r *Stream) {
				defer wg.Done()
				seqs[g] = drawAll(r, draws)
			}(g, r)
		}
		wg.Wait()
		return seqs
	}
	want := run()
	for rep := 1; rep < replicas; rep++ {
		got := run()
		for g := range want {
			for i := range want[g] {
				if got[g][i] != want[g][i] {
					t.Fatalf("replica %d, goroutine %d, draw %d: got %#x, want %#x — derived streams are not scheduling-independent", rep, g, i, got[g][i], want[g][i])
				}
			}
		}
	}
}

// TestPropertyDeriveDoesNotDisturbParent interleaves derivations with
// parent draws in two different orders and requires the parent sequence
// to be unaffected: Derive is a read-only operation, which is what
// makes concurrent per-worker derivation safe at all.
func TestPropertyDeriveDoesNotDisturbParent(t *testing.T) {
	const draws = 512
	plain := drawAll(New(7), draws)

	noisy := New(7)
	var got []uint64
	for i := 0; i < draws; i++ {
		// Derivations between every draw, with draw-dependent labels.
		noisy.Derive("a")
		noisy.DeriveN("b", i)
		got = append(got, noisy.Uint64())
		noisy.Derive("c")
	}
	for i := range plain {
		if got[i] != plain[i] {
			t.Fatalf("draw %d: parent sequence disturbed by interleaved derivations: got %#x, want %#x", i, got[i], plain[i])
		}
	}
}

// TestPropertyConcurrentDerivationIsRaceFreeAndPure derives streams
// from one shared parent on many goroutines at once (the batch
// scheduler's workerRng shape) while the parent is never drawn from,
// and checks every goroutine's derived sequence against a serial
// oracle. Run under -race this also proves Derive/DeriveN perform no
// writes to the shared parent.
func TestPropertyConcurrentDerivationIsRaceFreeAndPure(t *testing.T) {
	const (
		goroutines = 16
		draws      = 128
	)
	parent := New(42)
	oracle := make([][]uint64, goroutines)
	for g := range oracle {
		oracle[g] = drawAll(parent.DeriveN("chunk", g), draws)
	}

	got := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = drawAll(parent.DeriveN("chunk", g), draws)
		}(g)
	}
	wg.Wait()
	for g := range oracle {
		for i := range oracle[g] {
			if got[g][i] != oracle[g][i] {
				t.Fatalf("goroutine %d, draw %d: concurrent derivation diverged from serial oracle: got %#x, want %#x", g, i, got[g][i], oracle[g][i])
			}
		}
	}
}

// TestPropertyAttemptIndexedBackoffDrawsDiffer pins what a caller that
// wants a fresh draw per attempt must do: deriving with the attempt index
// folded in (DeriveN) gives each attempt its own draw, whereas
// re-deriving the same label replays the first draw forever. The engine
// relies on the second half: a retried chunk attempt re-derives its
// streams by label and so replays the same bytes.
func TestPropertyAttemptIndexedBackoffDrawsDiffer(t *testing.T) {
	parent := New(99)

	// Same-label re-derivation: degenerate, every attempt sees one draw.
	first := parent.Derive("faultbackoff").Float64()
	for attempt := 0; attempt < 8; attempt++ {
		if got := parent.Derive("faultbackoff").Float64(); got != first {
			t.Fatalf("same-label derivation should replay the same draw, got %v vs %v", got, first)
		}
	}

	// Attempt-indexed derivation: draws differ across attempts but are
	// bit-reproducible across replays.
	draw := func(attempt int) float64 {
		return parent.DeriveN("faultbackoff", attempt).Float64()
	}
	seen := map[float64]bool{}
	for attempt := 0; attempt < 8; attempt++ {
		v := draw(attempt)
		if seen[v] {
			t.Fatalf("attempt %d: jitter draw %v repeated across attempts", attempt, v)
		}
		seen[v] = true
		if replay := draw(attempt); replay != v {
			t.Fatalf("attempt %d: replayed draw %v differs from original %v", attempt, replay, v)
		}
	}
}
