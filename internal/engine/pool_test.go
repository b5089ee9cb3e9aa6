package engine_test

import (
	"testing"

	"gostats/internal/engine"
)

// poolProg is a minimal recycling program: its state is a one-element
// buffer so reuse is observable through pointer identity.
type poolProg struct{ engine.Program }

type poolState struct{ v float64 }

func (poolProg) Clone(s engine.State) engine.State {
	c := *s.(*poolState)
	return &c
}

func (poolProg) CloneInto(dst, src engine.State) engine.State {
	d, ok := dst.(*poolState)
	if !ok {
		c := *src.(*poolState)
		return &c
	}
	*d = *src.(*poolState)
	return d
}

func TestStatePoolReusesReleasedStates(t *testing.T) {
	sp := engine.NewStatePool(poolProg{})
	a := sp.Clone(&poolState{v: 1}).(*poolState)
	sp.Release(a)
	b := sp.Clone(&poolState{v: 2}).(*poolState)
	if a != b {
		t.Fatalf("pool did not reuse the released state's buffer")
	}
	if b.v != 2 {
		t.Fatalf("reused state not overwritten: v = %v, want 2", b.v)
	}
	st := sp.Stats()
	if st.Fresh != 1 || st.Reused != 1 || st.Released != 1 {
		t.Fatalf("stats = %+v, want fresh=1 reused=1 released=1", st)
	}
}

func TestStatePoolNilSafety(t *testing.T) {
	var nilPool *engine.StatePool
	nilPool.Release(&poolState{}) // must not panic
	if s := nilPool.Stats(); s != (engine.PoolStats{}) {
		t.Fatalf("nil pool stats = %+v, want zero", s)
	}
	sp := engine.NewStatePool(poolProg{})
	sp.Release(nil) // must not panic
	sp.ReleaseReplicas(nil)
	sp.ReleaseReplicas([]engine.State{&poolState{}}) // origs[0] alone: nothing to release
	if st := sp.Stats(); st.Released != 0 {
		t.Fatalf("released = %d, want 0", st.Released)
	}
}

func TestStatePoolReleaseReplicasKeepsFinal(t *testing.T) {
	sp := engine.NewStatePool(poolProg{})
	final := &poolState{v: 10}
	r1, r2 := &poolState{v: 11}, &poolState{v: 12}
	sp.ReleaseReplicas([]engine.State{final, r1, r2})
	if st := sp.Stats(); st.Released != 2 {
		t.Fatalf("released = %d, want 2 (replicas only)", st.Released)
	}
	// The next two clones come from the free list; neither may be final's
	// buffer.
	for i := 0; i < 2; i++ {
		c := sp.Clone(&poolState{v: 3}).(*poolState)
		if c == final {
			t.Fatalf("pool handed out origs[0] (the live final state)")
		}
	}
}

// nonRecycler lacks CloneInto: the pool must degrade to plain Clone and
// never retain released states.
type nonRecycler struct{ engine.Program }

func (nonRecycler) Clone(s engine.State) engine.State {
	c := *s.(*poolState)
	return &c
}

func TestStatePoolWithoutRecyclerDegradesToClone(t *testing.T) {
	sp := engine.NewStatePool(nonRecycler{})
	a := sp.Clone(&poolState{v: 1}).(*poolState)
	sp.Release(a)
	b := sp.Clone(&poolState{v: 2}).(*poolState)
	if a == b {
		t.Fatalf("non-recycling pool must not reuse buffers")
	}
	if st := sp.Stats(); st.Released != 0 || st.Fresh != 2 {
		t.Fatalf("stats = %+v, want fresh=2 released=0", st)
	}
}
