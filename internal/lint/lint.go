// Package lint is statslint: two static analyzers for the properties of
// the STATS determinism contract that no runtime test can reach.
//
// The contract — committed outputs are byte-identical across batch,
// stream, and sim schedulers and through every fault-recovery path — is
// checked exactly by running the program: the equivalence, chaos,
// checkpoint round-trip, clone-independence and allocation tests. What
// they cannot see is a nondeterminism source on a path no test input
// happens to drive (detpath), or a plain access racing an atomic one on
// an interleaving -race never observes (atomicprot). DESIGN.md §8 says
// when an analyzer earns its place here.
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic, an analysistest-style harness — but is built purely on the
// standard library (go/parser, go/types, and export data located via
// `go list -export`), so the module keeps zero external dependencies.
//
// Intentional nondeterminism (the simulated machine's jitter models, the
// engine's wall-clock instrumentation) is annotated in source with
//
//	//statslint:allow [analyzer] <reason>
//
// which suppresses diagnostics on the same line or the line below; the
// reason is mandatory. See allow.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one statslint analysis and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String formats the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// A Pass provides one analyzer run with one type-checked package and
// collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Config   *Config

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown (e.g. in a package
// with type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// Config scopes the analyzers to the tree under analysis.
type Config struct {
	// CriticalPrefixes lists import-path prefixes of determinism-critical
	// packages: code where any scheduling-, time-, or hash-order-dependent
	// value can reach committed outputs or the protocol event stream.
	// detpath only fires inside these. An empty prefix marks every
	// package critical (used by tests).
	CriticalPrefixes []string
}

// DefaultConfig marks the protocol engine, the benchmark programs, every
// other component whose behavior must be a pure function of (inputs,
// seed), internal/experiments, whose rendered artifacts are compared
// across runs, and internal/stat, whose histograms those artifacts are
// built from, as determinism-critical. Deliberately not listed: cmd/*
// (serving and CLI glue), internal/report, internal/critpath,
// internal/profiler, internal/trace, internal/quality — analysis-side
// code whose outputs are derived values, not committed protocol outputs
// or artifacts in their own right.
func DefaultConfig() *Config {
	return &Config{CriticalPrefixes: []string{
		"gostats/internal/engine",
		"gostats/internal/ring",
		"gostats/internal/bench",
		"gostats/internal/autotune",
		"gostats/internal/rng",
		"gostats/internal/faultinject",
		"gostats/internal/machine",
		"gostats/internal/memsim",
		"gostats/internal/cluster",
		"gostats/internal/workload",
		"gostats/internal/checkpoint",
		"gostats/internal/procexec",
		"gostats/internal/experiments",
		"gostats/internal/stat",
	}}
}

// IsCritical reports whether pkgPath is determinism-critical under c.
func (c *Config) IsCritical(pkgPath string) bool {
	for _, p := range c.CriticalPrefixes {
		if p == "" || pkgPath == p || (len(pkgPath) > len(p) && pkgPath[:len(p)] == p && pkgPath[len(p)] == '/') {
			return true
		}
	}
	return false
}

// Analyzers returns the full statslint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detpath, AtomicProt}
}
