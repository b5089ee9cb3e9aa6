// Package lint is statslint: a suite of static analyzers that enforce
// the STATS determinism and protocol contracts at compile time.
//
// The repo's load-bearing invariant — committed outputs are
// byte-identical across batch, stream, and sim schedulers and through
// every fault-recovery path — is otherwise guarded only by runtime
// tests, which catch violations one input at a time and after the fact.
// The analyzers here move the repo from "tested deterministic" to
// "statically checked deterministic": every build can cheaply prove the
// absence of whole classes of nondeterminism bugs (see the individual
// analyzer docs and DESIGN.md, "Static enforcement", for what each one
// can and cannot prove).
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
	// Doc is a one-paragraph description shown by `statslint -help`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
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

	// HotPathPackages lists import-path prefixes where every function is
	// on the allocation-critical hot path; hotalloc flags allocation
	// sites in all of them. An empty prefix marks every package hot
	// (used by tests).
	HotPathPackages []string

	// HotPathFiles maps an import path to base filenames within it whose
	// functions are hot — for packages where only some files carry the
	// per-input pipeline (engine's commit/assemble vs. its setup and
	// recovery code). Individual functions elsewhere opt in with a
	// //statslint:hotpath doc comment.
	HotPathFiles map[string][]string
}

// DefaultConfig marks the protocol engine, the benchmark programs, and
// every other component whose behavior must be a pure function of
// (inputs, seed) as determinism-critical. Deliberately not
// listed: cmd/* (serving and CLI glue), internal/report, internal/
// experiments, internal/critpath, internal/profiler, internal/trace,
// internal/stat, internal/quality — analysis-side code whose outputs are
// derived artifacts, not committed protocol outputs.
// The hot-path seeds mirror where PR 7's allocation wins live: every
// ring operation runs once per pipeline hop, and the engine's commit/
// assemble files run once per input on the committed path (assemble.go
// is Push itself: the fill and the dispatch; Pipeline.record, the lookup
// both start from, sits beside the chunk type in pipeline.go and opts in
// by directive) — as does bench's ndjson.go, which every served line is
// read and written with, and atof.go, which converts each number on it. worker/attempt/protocol
// are the chunk protocol itself, which runs once per chunk and allocates
// nothing there on the fault-free path.
func DefaultConfig() *Config {
	return &Config{
		HotPathPackages: []string{"gostats/internal/ring"},
		HotPathFiles: map[string][]string{
			"gostats/internal/engine": {"commit.go", "assemble.go", "worker.go", "attempt.go", "protocol.go"},
			"gostats/internal/bench":  {"ndjson.go", "atof.go"},
		},
		CriticalPrefixes: []string{
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
	return []*Analyzer{Detpath, StateContract, SlabLife, EventOrder, AtomicProt, HotAlloc, WireComplete}
}
