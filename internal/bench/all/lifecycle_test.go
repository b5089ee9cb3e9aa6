package all

import (
	"testing"

	"gostats/internal/bench"
	"gostats/internal/engine"
	"gostats/internal/rng"
)

// genStates materializes a diverse set of states for a benchmark: several
// independent lineages (initial and fresh starts), evolved through
// different input prefixes with different RNG streams, sampled at
// staggered points. The mix deliberately contains both near pairs (same
// lineage, adjacent samples, or parallel lineages over the same inputs)
// and far pairs (different stream positions, cold vs. locked states).
func genStates(b bench.Benchmark, n int) []engine.State {
	ins := b.Inputs(rng.New(11))
	states := make([]engine.State, 0, n)
	lineage := 0
	for len(states) < n {
		lineage++
		var s engine.State
		if lineage%2 == 0 {
			s = b.Initial(rng.New(uint64(lineage)).Derive("init"))
		} else {
			s = b.Fresh(rng.New(uint64(lineage)).Derive("fresh"))
		}
		upd := rng.New(uint64(lineage)).Derive("upd")
		// Stride through the input stream so lineages visit different
		// regimes (occlusions, swaption switches, drifted boundaries).
		start := (lineage * 37) % len(ins)
		steps := 4 + lineage%13
		for k := 0; k < steps && len(states) < n; k++ {
			s, _ = b.Update(s, ins[(start+k)%len(ins)], upd)
			if k%2 == 1 {
				states = append(states, b.Clone(s))
			}
		}
		states = append(states, b.Clone(s))
	}
	return states[:n]
}

// TestCloneIntoMatchesClone checks the StateRecycler contract: a
// CloneInto into a retired state is indistinguishable under Match from a
// fresh Clone.
func TestCloneIntoMatchesClone(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			rec, ok := engine.Program(b).(engine.StateRecycler)
			if !ok {
				t.Fatalf("%s does not implement engine.StateRecycler", name)
			}
			states := genStates(b, 8)
			for i, src := range states {
				retired := states[(i+1)%len(states)] // arbitrary dead buffer
				recycled := rec.CloneInto(retired, src)
				plain := b.Clone(src)
				if !b.Match(recycled, plain) {
					t.Fatalf("state %d: CloneInto result does not Match a plain Clone", i)
				}
				// nil dst must behave like Clone.
				fromNil := rec.CloneInto(nil, src)
				if !b.Match(fromNil, plain) {
					t.Fatalf("state %d: CloneInto(nil, src) does not Match Clone(src)", i)
				}
			}
		})
	}
}

// TestCloneIsIndependent checks that a clone owns its buffers: updating
// the source leaves a Clone and a CloneInto byte-for-byte unchanged under
// EncodeState, and updating the clones leaves the source unchanged. A
// Clone that assigns a slice or map field instead of copying it shares
// memory across speculative lineages, which equality tests cannot see
// until some update writes through the alias.
func TestCloneIsIndependent(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			b := bench.MustNew(name)
			rec := engine.Program(b).(engine.StateRecycler)
			wc, err := bench.WireFor(name)
			if err != nil {
				t.Fatal(err)
			}
			enc := func(s engine.State) string {
				raw, err := wc.EncodeState(s)
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			ins := b.Inputs(rng.New(7))
			drive := func(s engine.State, i int, label string) engine.State {
				for k := 0; k < 6; k++ {
					s, _ = b.Update(s, ins[(i*11+k)%len(ins)], rng.New(uint64(i)).DeriveN(label, k))
				}
				return s
			}
			states := genStates(b, 8)
			for i, s := range states {
				c := b.Clone(s)
				c2 := rec.CloneInto(b.Clone(states[(i+1)%len(states)]), s)
				cBytes, c2Bytes := enc(c), enc(c2)
				s = drive(s, i, "src")
				if enc(c) != cBytes {
					t.Fatalf("state %d: updating the source changed its Clone", i)
				}
				if enc(c2) != c2Bytes {
					t.Fatalf("state %d: updating the source changed its CloneInto", i)
				}
				sBytes := enc(s)
				drive(c, i, "clone")
				drive(c2, i, "cloneinto")
				if enc(s) != sBytes {
					t.Fatalf("state %d: updating its clones changed the source", i)
				}
			}
		})
	}
}

// Micro-benchmarks for the per-benchmark state operations the STATS hot
// path is made of. Run with:
//
//	go test -run=NONE -bench='BenchmarkClone|BenchmarkMatch' -benchmem ./internal/bench/all
func benchStates(b bench.Benchmark) (engine.State, engine.State) {
	states := genStates(b, 2)
	return states[0], states[1]
}

func BenchmarkClone(b *testing.B) {
	for _, name := range bench.Names() {
		bm := bench.MustNew(name)
		s, _ := benchStates(bm)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bm.Clone(s)
			}
		})
	}
}

func BenchmarkCloneIntoPooled(b *testing.B) {
	for _, name := range bench.Names() {
		bm := bench.MustNew(name)
		s, _ := benchStates(bm)
		b.Run(name, func(b *testing.B) {
			pool := engine.NewStatePool(bm)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Release(pool.Clone(s))
			}
		})
	}
}

func BenchmarkMatch(b *testing.B) {
	for _, name := range bench.Names() {
		bm := bench.MustNew(name)
		s1, s2 := benchStates(bm)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bm.Match(s1, s2)
			}
		})
	}
}
