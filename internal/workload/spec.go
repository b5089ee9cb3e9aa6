package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"gostats/internal/rng"
)

// Duration is a virtual-nanosecond quantity that unmarshals from either a
// JSON number (nanoseconds) or a Go duration string ("250ms"). It
// marshals back as nanoseconds, so a spec that round-trips through JSON
// is byte-stable even when it was authored with strings.
type Duration float64

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("workload: bad duration %s: %w", data, err)
	}
	*d = Duration(v)
	return nil
}

// DistSpec is the serializable description of one Distribution. Dist
// selects the law: "exponential" takes its Mean (a duration for arrival
// gaps), "poisson" its Lambda (a plain count for session lengths).
type DistSpec struct {
	Dist   string   `json:"dist"`
	Mean   Duration `json:"mean,omitempty"`
	Lambda float64  `json:"lambda,omitempty"`
}

// Zero reports whether the spec is unset (no law named).
func (d DistSpec) Zero() bool { return d.Dist == "" }

// Build constructs the described Distribution and validates it.
func (d DistSpec) Build() (Distribution, error) {
	var dist Distribution
	switch d.Dist {
	case "exponential":
		dist = exp(float64(d.Mean))
	case "poisson":
		dist = Poisson{Lambda: d.Lambda}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q (want exponential or poisson)", d.Dist)
	}
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	return dist, nil
}

// MixEntry is one benchmark's share of a session mix. Weight <= 0 means
// equal weight with every other defaulted entry.
type MixEntry struct {
	Benchmark string  `json:"benchmark"`
	Weight    float64 `json:"weight,omitempty"`
}

// Mix picks a benchmark per session. The uniform case (no explicit
// weights) draws one r.Intn(n); weighted mixes draw one r.Float64()
// against the cumulative weights. Either way a pick is one draw, so the
// mix stream stays in step with the session index.
type Mix struct {
	names   []string
	cum     []float64 // cumulative weights; nil for the uniform fast path
	uniform bool
}

// uniformMix builds an equal-weight mix over names in the given order.
func uniformMix(names []string) *Mix {
	return &Mix{names: append([]string(nil), names...), uniform: true}
}

// NewMix builds a mix from entries. All-default weights collapse to the
// uniform fast path.
func NewMix(entries []MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	names := make([]string, len(entries))
	weighted := false
	for i, e := range entries {
		if e.Benchmark == "" {
			return nil, fmt.Errorf("workload: mix entry %d has no benchmark", i)
		}
		names[i] = e.Benchmark
		if e.Weight > 0 {
			weighted = true
		} else if e.Weight < 0 {
			return nil, fmt.Errorf("workload: mix entry %q has negative weight", e.Benchmark)
		}
	}
	if !weighted {
		return uniformMix(names), nil
	}
	cum := make([]float64, len(entries))
	total := 0.0
	for i, e := range entries {
		w := e.Weight
		if w <= 0 {
			return nil, fmt.Errorf("workload: mix entry %q has no weight but the mix is weighted", e.Benchmark)
		}
		total += w
		cum[i] = total
	}
	return &Mix{names: names, cum: cum}, nil
}

// Pick draws one benchmark name.
func (m *Mix) Pick(r *rng.Stream) string {
	if m.uniform {
		return m.names[r.Intn(len(m.names))]
	}
	u := r.Float64() * m.cum[len(m.cum)-1]
	for i, c := range m.cum {
		if u < c {
			return m.names[i]
		}
	}
	return m.names[len(m.names)-1]
}

// Names returns the mix's benchmark names in spec order.
func (m *Mix) Names() []string { return append([]string(nil), m.names...) }

// Spec is a complete multi-client workload description — the file format
// statsload, statsbench -workload and statsserved -gen-spec share.
//
// Arrival spaces session starts; Length is how many inputs a session
// streams (unset: each benchmark's full native stream). Modulators shape
// the arrival rate over virtual time. A session holds its backend for as
// long as its inputs take to run, so a spec has no duration law: older
// spec files that carry one still parse, and the field is ignored.
type Spec struct {
	Name       string     `json:"name"`
	Seed       uint64     `json:"seed"`
	Sessions   int        `json:"sessions"`
	Arrival    DistSpec   `json:"arrival"`
	Length     DistSpec   `json:"length,omitempty"`
	Mix        []MixEntry `json:"mix"`
	Modulators []ModSpec  `json:"modulators,omitempty"`
}

// Validate reports spec errors — the single validation point every
// consumer (statsbench, statsload, statsserved -gen-spec) shares.
func (s *Spec) Validate() error {
	if s.Sessions <= 0 {
		return fmt.Errorf("workload: sessions must be positive, got %d", s.Sessions)
	}
	if s.Arrival.Zero() {
		return fmt.Errorf("workload: spec needs an arrival distribution")
	}
	if _, err := s.Arrival.Build(); err != nil {
		return fmt.Errorf("workload: arrival: %w", err)
	}
	if !s.Length.Zero() {
		if _, err := s.Length.Build(); err != nil {
			return fmt.Errorf("workload: length: %w", err)
		}
	}
	if _, err := NewMix(s.Mix); err != nil {
		return err
	}
	for i, m := range s.Modulators {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("workload: modulator %d: %w", i, err)
		}
	}
	return nil
}

// Parse decodes and validates a spec from JSON bytes.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workload: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
