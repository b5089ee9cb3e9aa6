package engine_test

import (
	"math"
	"testing"
	"testing/quick"

	"gostats/internal/engine"
	"gostats/internal/machine"
	"gostats/internal/rng"
	"gostats/internal/trace"
)

// toyProg is a minimal nondeterministic program with a state dependence
// that has the short-memory property: v' = decay*v + in + noise, so the
// influence of the initial state vanishes geometrically.
type toyProg struct {
	decay      float64
	noise      float64 // nondeterminism magnitude per update
	tol        float64 // Match tolerance
	neverMatch bool
	updInstr   int64
	parInstr   int64
	grain      int
	preInstr   int64
	postInstr  int64
}

type toyState struct {
	v float64
	n int
}

func (p *toyProg) Name() string { return "toy" }

func (p *toyProg) Initial(r *rng.Stream) engine.State { return &toyState{v: 100} }

func (p *toyProg) Fresh(r *rng.Stream) engine.State { return &toyState{v: 0} }

func (p *toyProg) Update(s engine.State, in engine.Input, r *rng.Stream) (engine.State, engine.Output) {
	st := s.(*toyState)
	x := in.(float64)
	st.v = p.decay*st.v + x + p.noise*(2*r.Float64()-1)
	st.n++
	return st, st.v
}

func (p *toyProg) Clone(s engine.State) engine.State {
	c := *s.(*toyState)
	return &c
}

func (p *toyProg) Match(a, b engine.State) bool {
	if p.neverMatch {
		return false
	}
	return math.Abs(a.(*toyState).v-b.(*toyState).v) <= p.tol
}

func (p *toyProg) StateBytes() int64 { return 16 }

func (p *toyProg) UpdateCost(in engine.Input, s engine.State) engine.UpdateWork {
	return engine.UpdateWork{
		Serial:      machine.Work{Instr: p.updInstr},
		Parallel:    machine.Work{Instr: p.parInstr},
		Grain:       p.grain,
		ShareJitter: 0.05,
	}
}

func (p *toyProg) RegionCosts() engine.RegionCosts {
	return engine.RegionCosts{
		Compare:  machine.Work{Instr: 50},
		Setup:    engine.ChunkCost{PerChunk: 1000},
		Teardown: engine.ChunkCost{PerChunk: 200},
		Pre:      machine.Work{Instr: p.preInstr},
		Post:     machine.Work{Instr: p.postInstr},
	}
}

func toyInputs(n int) []engine.Input {
	ins := make([]engine.Input, n)
	for i := range ins {
		ins[i] = float64(i%7) + 1
	}
	return ins
}

// easyProg matches almost always (large tolerance, strong decay).
func easyProg() *toyProg {
	return &toyProg{decay: 0.5, noise: 0.01, tol: 5, updInstr: 20_000, parInstr: 0, grain: 1}
}

// simPlain runs fn — a sequential or original-TLP baseline — on a fresh
// simulated machine and returns its makespan.
func simPlain(t *testing.T, cores int, fn func(ex *engine.SimExec)) int64 {
	t.Helper()
	m := machine.New(machine.DefaultConfig(cores))
	if err := m.Run("main", func(th *machine.Thread) { fn(engine.NewSimExec(th)) }); err != nil {
		t.Fatal(err)
	}
	return m.Now()
}

// simStats runs the STATS model over ins on the simulated batch body and
// returns the report and the makespan.
func simStats(t *testing.T, cores int, p engine.Program, ins []engine.Input, cfg engine.Config) (*engine.Report, int64) {
	t.Helper()
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(cores)}
	rep, err := sim.RunSlice(p, ins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, sim.Cycles()
}

func TestConfigValidate(t *testing.T) {
	good := engine.Config{Chunks: 4, Lookback: 2, ExtraStates: 1, InnerWidth: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []engine.Config{
		{Chunks: 0, Lookback: 1, InnerWidth: 1},
		{Chunks: 1, Lookback: 0, InnerWidth: 1},
		{Chunks: 1, Lookback: 1, ExtraStates: -1, InnerWidth: 1},
		{Chunks: 1, Lookback: 1, InnerWidth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSequentialOutputsAllInputs(t *testing.T) {
	p := easyProg()
	ins := toyInputs(50)
	var rep *engine.Report
	cycles := simPlain(t, 1, func(ex *engine.SimExec) {
		rep = engine.RunSequential(ex, p, ins, 1)
	})
	if len(rep.Outputs) != 50 {
		t.Fatalf("got %d outputs", len(rep.Outputs))
	}
	if cycles == 0 {
		t.Fatal("sequential run took no time")
	}
}

func TestStatsRunCommitsAndOrdersOutputs(t *testing.T) {
	p := easyProg()
	ins := toyInputs(120)
	rep, _ := simStats(t, 8, p, ins, engine.Config{Chunks: 4, Lookback: 10, ExtraStates: 2, InnerWidth: 1, Seed: 7})
	if len(rep.Outputs) != 120 {
		t.Fatalf("got %d outputs, want 120", len(rep.Outputs))
	}
	if rep.Commits+rep.Aborts != rep.Chunks {
		t.Fatalf("commits %d + aborts %d != chunks %d", rep.Commits, rep.Aborts, rep.Chunks)
	}
	if rep.Commits < 3 {
		t.Fatalf("easy program should mostly commit, got %d commits", rep.Commits)
	}
}

func TestStatsSpeedsUpOverSequential(t *testing.T) {
	p := easyProg()
	ins := toyInputs(400)
	seq := simPlain(t, 1, func(ex *engine.SimExec) { engine.RunSequential(ex, p, ins, 1) })
	rep, par := simStats(t, 8, p, ins, engine.Config{Chunks: 8, Lookback: 8, ExtraStates: 1, InnerWidth: 1, Seed: 7})
	if rep.Aborts > 1 {
		t.Fatalf("unexpected aborts: %d", rep.Aborts)
	}
	speedup := float64(seq) / float64(par)
	if speedup < 3 {
		t.Fatalf("8-chunk STATS speedup only %.2fx", speedup)
	}
}

func TestNeverMatchAbortsEverySpeculation(t *testing.T) {
	p := easyProg()
	p.neverMatch = true
	ins := toyInputs(80)
	rep, _ := simStats(t, 8, p, ins, engine.Config{Chunks: 4, Lookback: 5, ExtraStates: 1, InnerWidth: 1, Seed: 3})
	if rep.Aborts != 3 || rep.Commits != 1 {
		t.Fatalf("never-match: commits %d aborts %d, want 1/3", rep.Commits, rep.Aborts)
	}
	if len(rep.Outputs) != 80 {
		t.Fatalf("aborted run lost outputs: %d", len(rep.Outputs))
	}
}

func TestAbortedRunMatchesSequentialSemantics(t *testing.T) {
	// With zero nondeterminism and forced aborts, every chunk re-executes
	// from the true predecessor state, so outputs must equal the
	// sequential execution exactly.
	p := &toyProg{decay: 0.9, noise: 0, tol: 0, neverMatch: true, updInstr: 1000}
	ins := toyInputs(60)
	var seq *engine.Report
	simPlain(t, 1, func(ex *engine.SimExec) { seq = engine.RunSequential(ex, p, ins, 1) })
	par, _ := simStats(t, 4, p, ins, engine.Config{Chunks: 4, Lookback: 5, ExtraStates: 1, InnerWidth: 1, Seed: 9})
	for i := range seq.Outputs {
		a, b := seq.Outputs[i].(float64), par.Outputs[i].(float64)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("output %d differs: seq %g, stats-with-aborts %g", i, a, b)
		}
	}
}

func TestCommittedOutputsAreSpeculative(t *testing.T) {
	// With nondeterminism and everything committing, outputs of later
	// chunks come from the speculative lineage: they may differ from the
	// sequential run but stay within the short-memory envelope.
	p := easyProg()
	ins := toyInputs(100)
	var seq *engine.Report
	simPlain(t, 1, func(ex *engine.SimExec) { seq = engine.RunSequential(ex, p, ins, 1) })
	par, _ := simStats(t, 8, p, ins, engine.Config{Chunks: 4, Lookback: 12, ExtraStates: 2, InnerWidth: 1, Seed: 11})
	// Outputs near the end of the stream must agree within the Match
	// tolerance envelope (semantics preservation in the nondeterministic
	// sense of §II-B).
	lastSeq := seq.Outputs[99].(float64)
	lastPar := par.Outputs[99].(float64)
	if math.Abs(lastSeq-lastPar) > 2*p.tol {
		t.Fatalf("final outputs diverged beyond tolerance: %g vs %g", lastSeq, lastPar)
	}
}

func TestThreadAndStateCounts(t *testing.T) {
	p := easyProg()
	ins := toyInputs(90)
	rep, _ := simStats(t, 8, p, ins, engine.Config{Chunks: 3, Lookback: 5, ExtraStates: 2, InnerWidth: 2, Seed: 1})
	// 3 workers + 3 gang helpers (width-1 each) + 2 boundaries * 2 replicas.
	want := 3 + 3*1 + 2*2
	if rep.ThreadsCreated != want {
		t.Fatalf("ThreadsCreated = %d, want %d", rep.ThreadsCreated, want)
	}
	if rep.StatesCreated < 3 {
		t.Fatalf("StatesCreated = %d implausibly low", rep.StatesCreated)
	}
	if rep.StateBytes != 16 {
		t.Fatalf("StateBytes = %d", rep.StateBytes)
	}
}

func TestInnerTLPReducesMakespan(t *testing.T) {
	p := easyProg()
	p.updInstr = 2_000
	p.parInstr = 400_000
	p.grain = 16
	ins := toyInputs(40)
	m1 := simPlain(t, 8, func(ex *engine.SimExec) { engine.RunOriginal(ex, p, ins, 1, 1) })
	m4 := simPlain(t, 8, func(ex *engine.SimExec) { engine.RunOriginal(ex, p, ins, 4, 1) })
	sp := float64(m1) / float64(m4)
	if sp < 2 {
		t.Fatalf("4-wide gang speedup only %.2fx", sp)
	}
}

func TestGrainLimitsGangWidth(t *testing.T) {
	p := easyProg()
	p.parInstr = 400_000
	p.grain = 2 // only 2-way parallel
	ins := toyInputs(30)
	m2 := simPlain(t, 8, func(ex *engine.SimExec) { engine.RunOriginal(ex, p, ins, 2, 1) })
	m8 := simPlain(t, 8, func(ex *engine.SimExec) { engine.RunOriginal(ex, p, ins, 8, 1) })
	// Width 8 cannot beat width 2 by much when grain is 2.
	if float64(m2)/float64(m8) > 1.3 {
		t.Fatalf("grain-2 update sped up too much at width 8: %d vs %d", m2, m8)
	}
}

func TestTraceContainsStatsPhases(t *testing.T) {
	p := easyProg()
	ins := toyInputs(100)
	tr := trace.New()
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(8), Options: []machine.Option{machine.WithTrace(tr)}}
	if _, err := sim.RunSlice(p, ins, engine.Config{Chunks: 4, Lookback: 8, ExtraStates: 2, InnerWidth: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	by := tr.CyclesByCategory()
	for _, c := range []trace.Category{trace.CatChunkWork, trace.CatAltProducer,
		trace.CatOrigStates, trace.CatCompare, trace.CatSetup, trace.CatStateCopy} {
		if by[c] == 0 {
			t.Errorf("no %v cycles in trace", c)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestLookbackLargerThanChunkClamps(t *testing.T) {
	p := easyProg()
	ins := toyInputs(12)
	rep, _ := simStats(t, 4, p, ins, engine.Config{Chunks: 4, Lookback: 100, ExtraStates: 1, InnerWidth: 1, Seed: 2})
	if len(rep.Outputs) != 12 {
		t.Fatalf("got %d outputs", len(rep.Outputs))
	}
}

func TestMoreChunksThanInputsCaps(t *testing.T) {
	p := easyProg()
	ins := toyInputs(5)
	rep, _ := simStats(t, 4, p, ins, engine.Config{Chunks: 50, Lookback: 1, ExtraStates: 1, InnerWidth: 1, Seed: 2})
	if rep.Chunks != 5 {
		t.Fatalf("Chunks = %d, want capped to 5", rep.Chunks)
	}
	if len(rep.Outputs) != 5 {
		t.Fatalf("outputs = %d", len(rep.Outputs))
	}
}

func TestEmptyInputsRejected(t *testing.T) {
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(2)}
	if _, err := sim.RunSlice(easyProg(), nil, engine.Config{Chunks: 2, Lookback: 1, InnerWidth: 1}); err == nil {
		t.Fatal("empty input stream accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	sim := &engine.SimScheduler{Config: machine.DefaultConfig(2)}
	if _, err := sim.RunSlice(easyProg(), toyInputs(4), engine.Config{Chunks: 0, Lookback: 1, InnerWidth: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// An invalid platform is an error of RunSlice, not a panic of the
// machine it would build.
func TestInvalidPlatformRejected(t *testing.T) {
	sim := &engine.SimScheduler{}
	if _, err := sim.RunSlice(easyProg(), toyInputs(4), engine.Config{Chunks: 2, Lookback: 1, InnerWidth: 1}); err == nil {
		t.Fatal("zero-core platform accepted")
	}
	if sim.Cycles() != 0 {
		t.Errorf("Cycles() = %d after a refused run, want 0", sim.Cycles())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := easyProg()
	ins := toyInputs(100)
	cfg := engine.Config{Chunks: 4, Lookback: 8, ExtraStates: 2, InnerWidth: 2, Seed: 42}
	runOnce := func() (int64, float64) {
		rep, cycles := simStats(t, 8, p, ins, cfg)
		return cycles, rep.Outputs[99].(float64)
	}
	t1, o1 := runOnce()
	t2, o2 := runOnce()
	if t1 != t2 || o1 != o2 {
		t.Fatalf("same seed diverged: (%d, %g) vs (%d, %g)", t1, o1, t2, o2)
	}
}

func TestDifferentSeedsDifferentNondeterminism(t *testing.T) {
	p := easyProg()
	p.noise = 0.5
	ins := toyInputs(100)
	out := func(seed uint64) float64 {
		rep, _ := simStats(t, 4, p, ins, engine.Config{Chunks: 2, Lookback: 8, ExtraStates: 1, InnerWidth: 1, Seed: seed})
		return rep.Outputs[99].(float64)
	}
	if out(1) == out(2) {
		t.Fatal("different seeds produced identical nondeterministic outputs")
	}
}

func TestNativeExecutorRunsModel(t *testing.T) {
	p := easyProg()
	ins := toyInputs(200)
	cfg := engine.Config{Chunks: 4, Lookback: 10, ExtraStates: 2, InnerWidth: 2, Seed: 13}
	rep, err := (&engine.BatchScheduler{}).RunSlice(p, ins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != 200 {
		t.Fatalf("native run produced %d outputs", len(rep.Outputs))
	}
	if rep.Commits+rep.Aborts != rep.Chunks {
		t.Fatalf("native commit accounting broken: %+v", rep)
	}
}

func TestNativeSequential(t *testing.T) {
	p := easyProg()
	rep := engine.RunSequential(engine.NewNativeExec(), p, toyInputs(30), 1)
	if len(rep.Outputs) != 30 {
		t.Fatalf("outputs = %d", len(rep.Outputs))
	}
}

func TestOracleRegionCycles(t *testing.T) {
	p := easyProg()
	ins := toyInputs(100)
	cpi := 1.0
	seq := engine.OracleRegionCycles(p, ins, 1, 1, 1, cpi, 1)
	if seq != 100*p.updInstr {
		t.Fatalf("1-chunk oracle = %d, want %d", seq, 100*p.updInstr)
	}
	four := engine.OracleRegionCycles(p, ins, 4, 1, 4, cpi, 1)
	if four != seq/4 {
		t.Fatalf("4-chunk oracle = %d, want %d", four, seq/4)
	}
	// Chunks beyond cores are capacity-bound.
	many := engine.OracleRegionCycles(p, ins, 20, 1, 4, cpi, 1)
	if many < seq/4 {
		t.Fatalf("oracle beat core capacity: %d < %d", many, seq/4)
	}
}

func TestOracleMonotoneInCores(t *testing.T) {
	p := easyProg()
	ins := toyInputs(64)
	prev := engine.OracleRegionCycles(p, ins, 64, 1, 1, 1, 1)
	for _, cores := range []int{2, 4, 8, 16} {
		cur := engine.OracleRegionCycles(p, ins, 64, 1, cores, 1, 1)
		if cur > prev {
			t.Fatalf("oracle time grew with cores: %d -> %d at %d cores", prev, cur, cores)
		}
		prev = cur
	}
}

func TestMaxChunks(t *testing.T) {
	cases := []struct{ inputs, cores, width, want int }{
		{1000, 28, 1, 28},
		{1000, 28, 2, 14},
		{1000, 28, 28, 1},
		{5, 28, 1, 5},
		{10, 4, 3, 1},
	}
	for _, c := range cases {
		if got := engine.MaxChunks(c.inputs, c.cores, c.width); got != c.want {
			t.Errorf("engine.MaxChunks(%d,%d,%d) = %d, want %d", c.inputs, c.cores, c.width, got, c.want)
		}
	}
}

func TestPropertyCommitsPlusAbortsEqualsChunks(t *testing.T) {
	f := func(seed uint64, chunks8, look8, extra8 uint8, hard bool) bool {
		p := easyProg()
		if hard {
			p.tol = 0.001
			p.noise = 1
		}
		cfg := engine.Config{
			Chunks:      int(chunks8%6) + 1,
			Lookback:    int(look8%10) + 1,
			ExtraStates: int(extra8 % 3),
			InnerWidth:  1,
			Seed:        seed,
		}
		ins := toyInputs(60)
		sim := &engine.SimScheduler{Config: machine.DefaultConfig(4)}
		rep, err := sim.RunSlice(p, ins, cfg)
		if err != nil {
			return false
		}
		return rep.Commits+rep.Aborts == rep.Chunks && len(rep.Outputs) == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
