package lint

import (
	"go/ast"
	"go/types"
)

// This file is statslint's interprocedural layer: a package-local call
// graph with per-function clock-taint summaries, computed once per
// package and cached, so detpath can follow a wall-clock value across
// function boundaries instead of stopping at every call.
//
// The summaries are deliberately coarse — a few booleans per function —
// because detpath only asks one question about a callee: does calling it
// hand me a wall-clock-derived value (returnsClock, elapsed)? Then the
// *call site* must satisfy detpath's instrumentation-only flow discipline,
// even when the helper's own clock read carries an allow (the allow
// waives the read, not every downstream use of the value).
//
// Scope and soundness: the graph is package-local and name-resolved
// through go/types (so shadowing and method sets are exact), but calls
// through interfaces, function values, and cross-package helpers are
// invisible — a helper moved to another package falls back to the
// intra-procedural behavior. Propagation runs to a fixpoint, so chains
// of helpers (a calls b calls time.Now) summarize correctly; recursion
// terminates because facts only ever flip from false to true.

// funcSummary is the interprocedural fact set for one declared function.
type funcSummary struct {
	// readsClock: the function (transitively) performs a value-producing
	// wall-clock read (one of detpath's timeFuncs).
	readsClock bool
	// returnsClock: the function has a time.Time result and transitively
	// reads the clock — calling it is equivalent to calling time.Now()
	// for flow purposes. Over-approximate: a clock-reading function that
	// returns an unrelated time.Time parameter is still summarized as
	// clock-returning (documented soundness limit; annotate the caller).
	returnsClock bool
	// elapsed: a Since-shaped helper — takes a time.Time parameter,
	// returns a time.Duration, and transitively reads the clock. Its
	// call sites get the same elapsed-into-instrumentation discipline as
	// time.Since.
	elapsed bool
	// callees are the package-local functions this body calls directly.
	callees map[*types.Func]bool
}

// summarySet is the cached per-package call graph and summaries.
type summarySet struct {
	// decls maps every declared function and method object to its decl.
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*funcSummary
}

// summaries computes (or returns the cached) summary set for the pass's
// package.
func (p *Pass) summaries() *summarySet {
	if p.Pkg.summaries != nil {
		return p.Pkg.summaries
	}
	s := buildSummaries(p)
	p.Pkg.summaries = s
	return s
}

// localCallee resolves a call expression to a function or method
// declared in this package, or nil (builtin, cross-package, interface,
// or function-value call).
func (s *summarySet) localCallee(p *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = p.ObjectOf(fun.Sel)
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := s.decls[fn]; !declared {
		return nil
	}
	return fn
}

// summary returns fn's summary (never nil for declared functions).
func (s *summarySet) summary(fn *types.Func) *funcSummary {
	return s.sums[fn]
}

func buildSummaries(p *Pass) *summarySet {
	s := &summarySet{
		decls: map[*types.Func]*ast.FuncDecl{},
		sums:  map[*types.Func]*funcSummary{},
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				s.decls[fn] = fd
				s.sums[fn] = &funcSummary{callees: map[*types.Func]bool{}}
			}
		}
	}

	// Direct facts: clock reads and call edges.
	for fn, fd := range s.decls {
		sum := s.sums[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok &&
				timeFuncs[sel.Sel.Name] && pkgFunc(p, call, "time", sel.Sel.Name) {
				sum.readsClock = true
			}
			if callee := s.localCallee(p, call); callee != nil {
				sum.callees[callee] = true
			}
			return true
		})
	}

	// Fixpoint: propagate clock taint through local calls.
	// Facts only flip false→true, so this terminates.
	for changed := true; changed; {
		changed = false
		for fn := range s.decls {
			sum := s.sums[fn]
			for callee := range sum.callees {
				if s.sums[callee].readsClock && !sum.readsClock {
					sum.readsClock = true
					changed = true
				}
			}
		}
	}

	// Shape facts derived after taint settles.
	for fn := range s.decls {
		sum := s.sums[fn]
		sig := fn.Type().(*types.Signature)
		if sum.readsClock {
			if resultHasType(sig, isTimeTime) {
				sum.returnsClock = true
			}
			if paramHasType(sig, isTimeTime) && resultHasType(sig, isTimeDuration) {
				sum.elapsed = true
			}
		}
	}
	return s
}

// isTimeTime reports whether t is time.Time.
func isTimeTime(t types.Type) bool { return isNamedFrom(t, "time", "Time") }

// isTimeDuration reports whether t is time.Duration.
func isTimeDuration(t types.Type) bool { return isNamedFrom(t, "time", "Duration") }

// isNamedFrom reports whether t (behind pointers) is the named type
// pkgPath.name.
func isNamedFrom(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// resultHasType reports whether any result of sig satisfies pred.
func resultHasType(sig *types.Signature, pred func(types.Type) bool) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if pred(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// paramHasType reports whether any parameter of sig satisfies pred.
func paramHasType(sig *types.Signature, pred func(types.Type) bool) bool {
	par := sig.Params()
	for i := 0; i < par.Len(); i++ {
		if pred(par.At(i).Type()) {
			return true
		}
	}
	return false
}
