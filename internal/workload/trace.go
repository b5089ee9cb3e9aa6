package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gostats/internal/rng"
)

// Session is one recorded session: when it arrives (virtual nanoseconds
// since the trace epoch), what it runs, how many inputs it streams, and
// the seed that regenerates its exact input stream. Inputs is zero when
// the spec has no length law (the full native stream). Reading skips any
// field Session does not declare, so a trace recorded with extra
// per-session fields still replays.
type Session struct {
	Seq       int    `json:"seq"`
	At        int64  `json:"at_ns"`
	Benchmark string `json:"benchmark"`
	Inputs    int    `json:"inputs,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
}

// Trace is a recorded workload: a header plus one Session per line. The
// NDJSON encoding is byte-stable — encoding/json emits struct fields in
// declaration order with no map iteration anywhere — so the same trace
// writes the same bytes every time, and tests can diff traces directly.
type Trace struct {
	Name     string
	Seed     uint64
	Sessions []Session
}

// traceHeader is the first NDJSON line of a trace file.
type traceHeader struct {
	Trace    string `json:"trace"`
	Seed     uint64 `json:"seed"`
	Sessions int    `json:"sessions"`
}

// WriteTo implements io.WriterTo: header line, then one session per line.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	writeLine := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		k, err := bw.Write(append(data, '\n'))
		n += int64(k)
		return err
	}
	if err := writeLine(traceHeader{Trace: t.Name, Seed: t.Seed, Sessions: len(t.Sessions)}); err != nil {
		return n, err
	}
	for i := range t.Sessions {
		if err := writeLine(t.Sessions[i]); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace parses a trace from its NDJSON form. A trace is replayed as
// a clock, so it is checked as one: the header's session count must
// match the body, each session's seq must be its index, and no session
// may arrive before the one ahead of it (or before the epoch).
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("workload: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	t := &Trace{Name: hdr.Trace, Seed: hdr.Seed}
	prev := int64(0)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		i := len(t.Sessions)
		var s Session
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("workload: bad trace line %d: %w", i+2, err)
		}
		if s.Seq != i {
			return nil, fmt.Errorf("workload: trace session %d has seq %d", i, s.Seq)
		}
		if s.At < prev {
			return nil, fmt.Errorf("workload: trace session %d arrives at %d ns, before %d ns", i, s.At, prev)
		}
		prev = s.At
		t.Sessions = append(t.Sessions, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Sessions) != hdr.Sessions {
		return nil, fmt.Errorf("workload: trace header promises %d sessions, file has %d", hdr.Sessions, len(t.Sessions))
	}
	return t, nil
}

// LoadTrace reads a trace file.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Generate expands a spec into its full session trace: arrival times from
// the (modulated) arrival distribution, benchmarks from the mix, input
// counts from the length distribution when set, and one derived seed per
// session so each session's input stream regenerates independently. The
// trace is a pure function of the spec — same spec, same bytes — and the
// only place a spec becomes sessions: statsload, statsbench -workload and
// statsserved -gen-spec all consume its output.
//
// Each field draws from its own stream derived from the spec's seed, so
// adding a length law to a spec leaves its arrival times and mix picks
// where they were.
func Generate(spec *Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	arrival, err := spec.Arrival.Build()
	if err != nil {
		return nil, err
	}
	var length Distribution
	if !spec.Length.Zero() {
		if length, err = spec.Length.Build(); err != nil {
			return nil, err
		}
	}
	mix, err := NewMix(spec.Mix)
	if err != nil {
		return nil, err
	}

	root := rng.New(spec.Seed)
	arrivals := root.Derive("workload-arrivals")
	lengths := root.Derive("workload-lengths")
	picks := root.Derive("workload-mix")
	seeds := root.Derive("workload-seeds")
	mods, err := buildModulators(spec.Modulators, root.Derive("workload-modulator"))
	if err != nil {
		return nil, err
	}

	t := &Trace{Name: spec.Name, Seed: spec.Seed, Sessions: make([]Session, spec.Sessions)}
	now := int64(0)
	for seq := 0; seq < spec.Sessions; seq++ {
		s := Session{Seq: seq, At: now, Benchmark: mix.Pick(picks), Seed: seeds.Uint64()}
		if length != nil {
			n := int(length.Sample(lengths))
			if n < 1 {
				n = 1 // a session streams at least one input
			}
			s.Inputs = n
		}
		t.Sessions[seq] = s
		if seq+1 < spec.Sessions {
			gap := int64(arrival.Sample(arrivals))
			if len(mods) > 0 {
				gap = scaleGap(gap, factor(mods, now))
			}
			if gap < 0 {
				gap = 0
			}
			now += gap
		}
	}
	return t, nil
}
