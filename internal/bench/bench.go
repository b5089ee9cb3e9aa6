// Package bench defines the benchmark contract and a registry the tools
// and experiments use. Eight workloads are registered: the six the paper
// evaluates (§IV-C), fluidanimate, which it excludes for lacking the
// short-memory property, and dedupstream, a large-state pipeline.
//
// The original study runs PARSEC 3.0 benchmarks (plus two OpenCV-based
// face trackers) compiled by STATS. This reproduction implements each
// workload as a self-contained Go kernel with the same dependence
// structure: the same state sizes (Table I), the same kind of
// nondeterminism, the same short-memory property, comparable inner
// (original) TLP, and an input scale chosen so the charged instruction
// counts land in the billions like the paper's. See each subpackage for
// the workload-specific modelling notes.
package bench

import (
	"fmt"
	"maps"
	"slices"

	"gostats/internal/engine"
	"gostats/internal/rng"
)

// Benchmark is one workload: a STATS program plus its inputs, output
// quality metric, and original-TLP shape.
type Benchmark interface {
	engine.Program
	// Inputs generates the native input stream (§IV-C "Inputs").
	Inputs(r *rng.Stream) []engine.Input
	// TrainingInputs generates the distinct, smaller stream the autotuner
	// profiles with.
	TrainingInputs(r *rng.Stream) []engine.Input
	// Quality scores a run's outputs; higher is better. It corresponds to
	// the paper's per-benchmark output-quality metrics (§IV-C), negated
	// where the paper uses a distance.
	Quality(outputs []engine.Output) float64
	// MaxInnerWidth bounds the useful width of the program's original TLP
	// (e.g. swaptions parallelizes across its 4 swaptions).
	MaxInnerWidth() int
	// Describe returns a one-line human description.
	Describe() string
}

var registry = map[string]func() Benchmark{}

// Register adds a benchmark constructor under name. It panics on
// duplicates (programmer error at init time).
func Register(name string, ctor func() Benchmark) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("bench: duplicate benchmark %q", name))
	}
	registry[name] = ctor
}

// New instantiates a registered benchmark.
func New(name string) (Benchmark, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// MustNew is New that panics on unknown names.
func MustNew(name string) Benchmark {
	b, err := New(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Names lists registered benchmarks in sorted order.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }
