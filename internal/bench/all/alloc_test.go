package all

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"gostats/internal/bench"
	"gostats/internal/bench/facetrack"
	"gostats/internal/engine"
	"gostats/internal/rng"
	"gostats/internal/workload"
)

// allocs reports the allocations of one call of f.
func allocs(f func()) float64 { return testing.AllocsPerRun(10, f) }

// sample is one benchmark's codec with an input, the output and state it
// leads to, and the three encoded.
type sample struct {
	wc                      bench.WireCodec
	out                     engine.Output
	st                      engine.State
	inLine, outLine, stLine []byte
}

func newSample(t *testing.T, name string) (s sample) {
	t.Helper()
	b := bench.MustNew(name)
	var err error
	if s.wc, err = bench.WireFor(name); err != nil {
		t.Fatal(err)
	}
	in := b.Inputs(rng.New(7))[3]
	s.st, s.out = b.Update(b.Initial(rng.New(1)), in, rng.New(2))
	if s.inLine, err = s.wc.EncodeInput(in); err != nil {
		t.Fatal(err)
	}
	if s.outLine, err = s.wc.EncodeOutput(s.out); err != nil {
		t.Fatal(err)
	}
	if s.stLine, err = s.wc.EncodeState(s.st); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCodecAllocations pins what the hand-written codecs are for. Every
// decoder must take its own encoder's line without encoding/json — seen
// from outside as allocating less than the same line behind a space,
// which json.Unmarshal decodes — and the hot ones have absolute budgets,
// the reusing halves a served line goes through (bench.ReusingCodec)
// among them.
func TestCodecAllocations(t *testing.T) {
	for _, name := range bench.CodecNames() {
		t.Run(name, func(t *testing.T) {
			s := newSample(t, name)
			for _, d := range []struct {
				what   string
				line   []byte
				decode func([]byte) error
			}{
				{"DecodeInput", s.inLine, func(l []byte) error { _, err := s.wc.DecodeInput(l); return err }},
				{"DecodeOutput", s.outLine, func(l []byte) error { _, err := s.wc.DecodeOutput(l); return err }},
				{"DecodeState", s.stLine, func(l []byte) error { _, err := s.wc.DecodeState(l); return err }},
			} {
				slowLine := append([]byte(" "), d.line...)
				if err := d.decode(slowLine); err != nil {
					t.Fatalf("%s: %v", d.what, err)
				}
				fast := allocs(func() { _ = d.decode(d.line) })
				slow := allocs(func() { _ = d.decode(slowLine) })
				if fast >= slow {
					t.Errorf("%s: %v allocations for the canonical line, %v through encoding/json: the scanner is not taking it", d.what, fast, slow)
				}
			}
		})
	}

	sc := newSample(t, "streamcluster")
	if n := allocs(func() { _, _ = sc.wc.DecodeInput(sc.inLine) }); n > 2 {
		t.Errorf("streamcluster DecodeInput: %v allocations, want at most 2 (the points and the interface box)", n)
	}
	if n := allocs(func() { _, _ = sc.wc.EncodeOutput(sc.out) }); n > 1 {
		t.Errorf("streamcluster EncodeOutput: %v allocations, want at most 1 (the line)", n)
	}
	// The reusing halves, as a served line runs them: a line decoded into
	// the input its record slot retires keeps only the interface box, and
	// an output appended to the session's line buffer allocates nothing.
	for _, name := range []string{"streamcluster", "streamclassifier", "dedupstream"} {
		s := newSample(t, name)
		rc := s.wc.(bench.ReusingCodec)
		spare, err := s.wc.DecodeInput(s.inLine)
		if err != nil {
			t.Fatal(err)
		}
		if n := allocs(func() { _, _ = rc.DecodeInputInto(s.inLine, spare) }); n > 1 {
			t.Errorf("%s DecodeInputInto with a spare: %v allocations, want at most 1 (the interface box)", name, n)
		}
	}
	for _, name := range bench.CodecNames() {
		s := newSample(t, name)
		rc, ok := s.wc.(bench.ReusingCodec)
		if !ok {
			t.Errorf("%s: codec is not a bench.ReusingCodec", name)
			continue
		}
		dst := make([]byte, 0, 4*len(s.outLine))
		if n := allocs(func() { _, _ = rc.AppendOutput(dst, s.out) }); n != 0 {
			t.Errorf("%s AppendOutput with room: %v allocations, want 0", name, n)
		}
	}
	dd := newSample(t, "dedupstream")
	if n := allocs(func() { _, _ = dd.wc.EncodeState(dd.st) }); n > 1 {
		t.Errorf("dedupstream EncodeState: %v allocations, want at most 1 (the line)", n)
	}
}

// heapDelta returns the heap objects and bytes f allocates, on any
// goroutine, after the garbage collector has been made to settle.
func heapDelta(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestMatchAllocatesNothing pins every benchmark's Match, the comparison
// the commit frontier makes at each boundary, to no heap allocation: its
// scratch lives on the stack, so validation adds nothing to a session's
// garbage at any worker count.
func TestMatchAllocatesNothing(t *testing.T) {
	for _, name := range bench.Names() {
		b := bench.MustNew(name)
		states := genStates(b, 6)
		for i := range states {
			x, y := states[i], states[(i+1)%len(states)]
			if n := allocs(func() { b.Match(x, y) }); n != 0 {
				t.Errorf("%s: Match of states %d and %d allocates %v objects, want 0", name, i, (i+1)%len(states), n)
			}
		}
	}
}

// TestUpdateAllocations pins every benchmark's steady-state Update to
// the output it returns (engine.StateDependence's contract): its heap
// objects and bytes per call, the least of three rounds over the same
// inputs once a pass over them has built every lazy buffer. A kernel's
// allocations ride along with every extra Update the protocol runs, so a
// scratch buffer made per call shows here as one object more. An 8-byte
// output box is half a 16-byte block, or a block of its own under the
// race detector; facedet-and-track's one-byte Detection is a sixteenth of
// one, or 16 bytes under the race detector. Bodytrack's two are its
// 50-float estimate (416 bytes) and the Result holding it (48), and the
// trackers' detector and estimate outputs are 48 bytes each.
func TestUpdateAllocations(t *testing.T) {
	const (
		warm, timed = 32, 32 // inputs
		rounds      = 3
	)
	pins := []struct {
		name             string
		objects          float64 // per call
		bytes, raceBytes float64 // per call
	}{
		{"bodytrack", 2, 464, 464},
		{"dedupstream", 1, 32, 32},
		{"facedet-and-track", 3, 97, 112},
		{"facetrack", 2, 96, 96},
		{"fluidanimate", 1, 16, 16},
		{"streamclassifier", 1, 8, 16},
		{"streamcluster", 1, 8, 16},
		{"swaptions", 1, 24, 24},
	}
	var names []string
	for _, tc := range pins {
		names = append(names, tc.name)
	}
	if !slices.Equal(names, bench.Names()) {
		t.Fatalf("pins cover %v, the registry holds %v", names, bench.Names())
	}
	for _, tc := range pins {
		b := bench.MustNew(tc.name)
		ins := workload.SessionInputs(b, warm+timed, 11)
		s, r := b.Initial(rng.New(3)), rng.New(3)
		pass := func(ins []engine.Input) {
			for _, in := range ins {
				s, _ = b.Update(s, in, r)
			}
		}
		pass(ins)
		objects, bytes := heapDelta(func() { pass(ins[warm:]) })
		for round := 1; round < rounds; round++ {
			o, by := heapDelta(func() { pass(ins[warm:]) })
			objects, bytes = min(objects, o), min(bytes, by)
		}
		wantBytes := tc.bytes
		if raceDetector() {
			wantBytes = tc.raceBytes
		}
		perObjects, perBytes := float64(objects)/timed, float64(bytes)/timed
		t.Logf("%s: %.2f heap objects and %.1f bytes per Update", tc.name, perObjects, perBytes)
		// A 16-byte block the round's first small object lands in may
		// have been opened before it.
		if perObjects > tc.objects || perBytes > wantBytes+16.0/timed {
			t.Errorf("%s: %.2f heap objects and %.1f bytes per Update (%d and %d over %d calls), want at most %.0f and %.0f",
				tc.name, perObjects, perBytes, objects, bytes, timed, tc.objects, wantBytes)
		}
	}
}

// TestPipelineAllocations pins what the engine itself allocates for a
// chunk on the fault-free path: nothing. A warmed pipeline's heap objects
// and bytes per chunk, less those the kernel allocates for the same inputs
// in a bare Update loop, are what the protocol's extra Update calls
// allocate — the lookback replays of the alternative producer and of the
// replica and an aborted chunk's re-execution box an output apiece, and
// every chunk builds a cold state. For streamcluster that measures
// 12.1–12.6 objects at either worker count (42.5 before chunk records, RNG
// streams and replica hand-offs stopped being allocated per chunk) and
// 200–216 bytes; one object more per chunk in the engine fails, and so do
// a tenth more bytes. The producer side is inside the measurement: Push
// fills and dispatches every chunk, parks on the speculation window with a
// cancellable context of its own, and — in the adaptive case, pinned to
// the same boundaries — records an outcome into the controller under the
// boundary lock once a chunk. The facetrack row is the configuration of
// BenchmarkStreamPipeline/workers=4: 20.1 objects and 809 bytes, or 887
// when the third round still had to clone one state more. The last row
// pins what a record's own buffers are for: its Plan repeats chunk sizes
// 4, 64, 4 — a period of three over an array of eight, so every record
// meets every size and is re-sliced both ways — and a warmed record
// allocates nothing for it: 10.5–11.0 objects and 186–201 bytes (262 under
// the race detector), what its least-aborting round re-executes and boxes.
// A record that dropped its inputs or its outs each lap would add an object
// and some 400 bytes a chunk.
func TestPipelineAllocations(t *testing.T) {
	const (
		chunkSize   = 16
		warm, timed = 47, 128 // chunks
		rounds      = 5       // timed rounds; the least one is the figure
	)
	ftp := facetrack.Default()
	ftp.Frames = (warm + timed) * chunkSize
	sc, ft := bench.MustNew("streamcluster"), facetrack.NewWithParams(ftp)
	// A streamcluster output is an 8-byte box. The allocator packs two of
	// those into a 16-byte block, except under the race detector, where
	// each takes a block of its own: 289–299 bytes a chunk, not 200–216.
	scBytes, planBytes := 220.0, 215.0
	if raceDetector() {
		scBytes, planBytes = 317, 290
	}
	fixed := []int{chunkSize}

	for _, tc := range []struct {
		b              bench.Benchmark
		workers        int
		adapt          bool
		sizes          []int   // the chunk sizes, repeated
		warm, timed    int     // chunks a round; whole periods of sizes
		objects, bytes float64 // budgets per chunk beyond the kernel's own
	}{
		{sc, 1, false, fixed, warm, timed, 13, scBytes},
		{sc, 2, false, fixed, warm, timed, 13, scBytes},
		{sc, 2, true, fixed, warm, timed, 13, scBytes},
		{ft, 4, false, fixed, warm, timed, 21, 889},
		{sc, 2, false, []int{4, 64, 4}, 30, 84, 12, planBytes},
	} {
		b, workers, warm, timed := tc.b, tc.workers, tc.warm, tc.timed
		row := fmt.Sprintf("%s workers=%d adapt=%v sizes=%v", b.Name(), workers, tc.adapt, tc.sizes)
		period := len(tc.sizes)
		plan, warmIn, timedLen := make([]int, warm+rounds*timed), 0, 0
		for j := range plan {
			plan[j] = tc.sizes[j%period]
			switch {
			case j < warm:
				warmIn += plan[j]
			case j < warm+timed:
				timedLen += plan[j]
			}
		}
		if period == 1 && !tc.adapt {
			// ChunkSize says the same. An adaptive row keeps the whole
			// plan: it fixes every size while the controller still
			// records every outcome.
			plan = nil
		}
		inputs := workload.SessionInputs(b, warmIn+timedLen, 11)
		if len(inputs) != warmIn+timedLen {
			t.Fatalf("%s has %d inputs, the test wants %d", b.Name(), len(inputs), warmIn+timedLen)
		}
		timedIn := inputs[warmIn:]
		kernelObjects, kernelBytes := heapDelta(func() {
			s, r := b.Initial(rng.New(3)), rng.New(3)
			for _, in := range timedIn {
				s, _ = b.Update(s, in, r)
			}
		})

		ctx, cancel := context.WithCancel(context.Background())
		p, err := engine.NewStream(ctx, b, engine.StreamConfig{
			ChunkSize: chunkSize, Plan: plan, Lookback: 4, ExtraStates: 1, Workers: workers, Seed: 3,
			Adapt: tc.adapt})
		if err != nil {
			t.Fatal(err)
		}
		// Whole chunks in, as many outputs out: the pipeline is idle at a
		// chunk boundary on either side of the measurement. Each round's
		// producer has returned before the next one starts: Push has one
		// caller at a time.
		var pushed sync.WaitGroup
		run := func(ins []engine.Input) {
			pushed.Add(1)
			go func() {
				defer pushed.Done()
				for _, in := range ins {
					if p.Push(ctx, in) != nil {
						return
					}
				}
			}()
			for range ins {
				if _, ok := <-p.Outputs(); !ok {
					t.Fatal("pipeline closed early")
				}
			}
			pushed.Wait()
		}
		run(inputs[:warmIn])
		// The noise is one-sided — a state cloned while the pool happened
		// to be empty — so the least of the rounds is the figure. (Of three
		// rounds, all were noisy on the Workers 1 row once in forty runs.)
		objects, bytes := heapDelta(func() { run(timedIn) })
		for round := 1; round < rounds; round++ {
			o, by := heapDelta(func() { run(timedIn) })
			objects, bytes = min(objects, o), min(bytes, by)
		}
		p.Close()
		for range p.Outputs() {
		}
		st, err := p.Wait()
		cancel()
		if err != nil || st.Faults != 0 || st.Chunks != int64(warm+rounds*timed) {
			t.Fatalf("%s: err %v, %d faults, %d chunks (want %d)", row, err, st.Faults, st.Chunks, warm+rounds*timed)
		}
		perObjects := (float64(objects) - float64(kernelObjects)) / float64(timed)
		perBytes := (float64(bytes) - float64(kernelBytes)) / float64(timed)
		t.Logf("%s: %.2f heap objects and %.0f bytes per chunk beyond the kernel's own", row, perObjects, perBytes)
		if perObjects > tc.objects {
			t.Errorf("%s: %.2f heap objects per chunk beyond the kernel's own (%d objects over %d chunks, kernel %d), want at most %.0f",
				row, perObjects, objects, timed, kernelObjects, tc.objects)
		}
		if perBytes > tc.bytes {
			t.Errorf("%s: %.0f heap bytes per chunk beyond the kernel's own (%d bytes over %d chunks, kernel %d), want at most %.0f",
				row, perBytes, bytes, timed, kernelBytes, tc.bytes)
		}
	}
}
