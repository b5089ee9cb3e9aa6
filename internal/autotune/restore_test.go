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
	cfg := OnlineConfig{Initial: 8, Min: 2, Max: 64}
	r := rng.New(99).Derive("outcomes")
	for _, cut := range []int{0, 1, 3, 4, 7, 40, 99} {
		live, err := NewOnline(cfg)
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
		restored, err := RestoreOnline(cfg, live.Snapshot())
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
	cfg := OnlineConfig{Initial: 8, Min: 2, Max: 64}
	for i, st := range []*OnlineState{
		{Size: 1},                       // below Min
		{Size: 128},                     // above Max
		{Size: 8, EpochN: 8},            // full epoch never survives Record
		{Size: 8, EpochN: 2, Aborts: 3}, // more aborts than outcomes
	} {
		if _, err := RestoreOnline(cfg, st); err == nil {
			t.Errorf("case %d: RestoreOnline accepted %+v", i, st)
		}
	}
	// nil state degrades to a fresh controller.
	o, err := RestoreOnline(cfg, nil)
	if err != nil || o.ChunkSize() != 8 {
		t.Fatalf("nil restore: %v, size %d", err, o.ChunkSize())
	}
}
