package core

import (
	"testing"

	"gostats/internal/engine"
)

func TestDigestsMayMatchLaneAdjacency(t *testing.T) {
	cases := []struct {
		name string
		a, b []int64
		want bool
	}{
		{"identical", []int64{5, -3, 0, 7}, []int64{5, -3, 0, 7}, true},
		{"one-step-up", []int64{5, -3, 0, 7}, []int64{6, -3, 0, 7}, true},
		{"one-step-down", []int64{5, -3, 0, 7}, []int64{5, -4, 0, 7}, true},
		{"all-lanes-adjacent", []int64{1, 2, 3, 4}, []int64{0, 3, 2, 5}, true},
		{"two-steps", []int64{5, -3, 0, 7}, []int64{7, -3, 0, 7}, false},
		{"far-lane", []int64{5, -3, 0, 7}, []int64{5, -3, 100, 7}, false},
		{"negative-boundary", []int64{0, 0, 0, 0}, []int64{-1, 0, 0, 0}, true},
		{"exact-lane-differs", []int64{engine.ExactLane(2)}, []int64{engine.ExactLane(3)}, false},
		{"exact-lane-same", []int64{engine.ExactLane(2)}, []int64{engine.ExactLane(2)}, true},
	}
	for _, c := range cases {
		got := engine.DigestsMayMatch(engine.PackLanes(c.a...), engine.PackLanes(c.b...))
		if got != c.want {
			t.Errorf("%s: engine.DigestsMayMatch(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		// Compatibility is symmetric.
		rev := engine.DigestsMayMatch(engine.PackLanes(c.b...), engine.PackLanes(c.a...))
		if rev != got {
			t.Errorf("%s: engine.DigestsMayMatch not symmetric", c.name)
		}
	}
}

func TestQuantizeLaneNeighborsWithinCell(t *testing.T) {
	// Two values within one cell of each other must quantize to the same
	// or adjacent lanes — the property the Fingerprinter soundness
	// arguments rest on.
	cell := 0.45
	for _, v := range []float64{-3.2, -0.4499, 0, 0.1, 2.25, 100.0} {
		for _, d := range []float64{-cell, -cell / 2, 0, cell / 3, cell} {
			qa, qb := engine.QuantizeLane(v, cell), engine.QuantizeLane(v+d, cell)
			if diff := qa - qb; diff < -1 || diff > 1 {
				t.Errorf("engine.QuantizeLane(%v)=%d vs engine.QuantizeLane(%v)=%d: more than one step apart", v, qa, v+d, qb)
			}
		}
	}
}

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
