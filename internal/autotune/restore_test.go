package autotune

import (
	"reflect"
	"testing"

	"gostats/internal/rng"
)

// TestCheckpointControllerRestore is the controller half of the resume
// contract: snapshot an online controller mid-session, restore it, feed
// both copies the identical outcome suffix, and demand the decision
// trajectories stay identical.
func TestCheckpointControllerRestore(t *testing.T) {
	r := rng.New(99).Derive("outcomes")
	for _, cut := range []int{0, 1, 3, 4, 7, 40, 99} {
		live, err := NewOnline(8)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := make([]bool, 200)
		for i := range outcomes {
			outcomes[i] = r.Float64() > 0.3
		}
		for _, ok := range outcomes[:cut] {
			live.Record(ok)
		}
		restored, err := RestoreOnline(8, live.Snapshot())
		if err != nil {
			t.Fatalf("cut %d: RestoreOnline: %v", cut, err)
		}
		for _, ok := range outcomes[cut:] {
			live.Record(ok)
			restored.Record(ok)
			if live.ChunkSize() != restored.ChunkSize() {
				t.Fatalf("cut %d: sizes diverged (%d vs %d)", cut, live.ChunkSize(), restored.ChunkSize())
			}
		}
		if !reflect.DeepEqual(live.History(), restored.History()) {
			t.Fatalf("cut %d: histories diverged\nlive:     %v\nrestored: %v", cut, live.History(), restored.History())
		}
		if live.Resizes() != restored.Resizes() {
			t.Fatalf("cut %d: resize totals diverged (%d vs %d)", cut, live.Resizes(), restored.Resizes())
		}
	}
}

func TestCheckpointControllerRestoreRejectsInvalid(t *testing.T) {
	for i, st := range []*OnlineState{
		{Size: 1},                       // below the lower bound, 2
		{Size: 128},                     // above the upper bound, 32
		{Size: 8, EpochN: 8},            // full epoch never survives Record
		{Size: 8, EpochN: 2, Aborts: 3}, // more aborts than outcomes
	} {
		if _, err := RestoreOnline(8, st); err == nil {
			t.Errorf("case %d: RestoreOnline accepted %+v", i, st)
		}
	}
	// nil state degrades to a fresh controller.
	o, err := RestoreOnline(8, nil)
	if err != nil || o.ChunkSize() != 8 {
		t.Fatalf("nil restore: %v, size %d", err, o.ChunkSize())
	}
}

// TestOnlineDerivedBounds pins the controller's bounds, which follow from
// its initial size alone: sustained aborts grow the size to exactly four
// times the initial one and no further, a clean streak shrinks it to
// exactly a quarter of it (at least one input), and a restore one past
// either bound is refused.
func TestOnlineDerivedBounds(t *testing.T) {
	for _, initial := range []int{1, 3, 8, 16} {
		lo, hi := max(1, initial/4), 4*initial
		for _, c := range []struct {
			committed bool
			want      int
		}{{false, hi}, {true, lo}} {
			o, err := NewOnline(initial)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40*epoch; i++ {
				o.Record(c.committed)
				if size := o.ChunkSize(); size < lo || size > hi {
					t.Fatalf("initial %d: size %d left [%d, %d]", initial, size, lo, hi)
				}
			}
			if o.ChunkSize() != c.want {
				t.Errorf("initial %d, committed=%v: settled at %d, want %d", initial, c.committed, o.ChunkSize(), c.want)
			}
		}
		for _, size := range []int{lo, hi} {
			if _, err := RestoreOnline(initial, &OnlineState{Size: size}); err != nil {
				t.Errorf("initial %d: restore at bound %d refused: %v", initial, size, err)
			}
		}
		for _, size := range []int{lo - 1, hi + 1} {
			if _, err := RestoreOnline(initial, &OnlineState{Size: size}); err == nil {
				t.Errorf("initial %d: restore at %d, one past [%d, %d], accepted", initial, size, lo, hi)
			}
		}
	}
}
