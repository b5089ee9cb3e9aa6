package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicProt checks the atomic-access protocol the lock-free hot path
// (internal/ring) depends on. The repo's rings are correct only because
// every cross-thread location is accessed through sync/atomic with a
// consistent discipline; one plain read of an atomically-published word,
// or one CAS loop that retries against a stale expected value, silently
// reintroduces the races the protocol was built to exclude — and -race
// only catches them when a test happens to interleave just so.
//
// It reports:
//
//  1. Function-style atomics — any call of a sync/atomic function
//     (atomic.AddUint64(&x, 1), ...). The typed atomics (atomic.Int64
//     et al.) make every access atomic by construction, so a plain
//     access can race an atomic one only through such a call; banning
//     it makes mixed access unwritable.
//  2. Stale CAS retry — a CompareAndSwap inside a loop whose expected
//     value is a variable declared outside the loop and never
//     reassigned inside it. When the CAS fails, the next iteration
//     compares against the same stale value and the loop either spins
//     forever or, worse, succeeds against a value someone else already
//     changed the meaning of. Constant expected values (one-way
//     transitions like closed.CompareAndSwap(false, true)) are exempt:
//     they are not snapshots that can go stale.
//
// An atomic on a struct copied by value is go vet's: the typed atomics
// carry noCopy fields, so vet's copylocks pass reports the copy itself
// (a value receiver, a by-value parameter, an assignment), and CI and
// TestSuiteCleanOnRepo both run it.
//
// Soundness: package-scoped and syntactic. A CAS loop whose exit
// condition makes the stale retry unreachable still gets flagged by
// check 2 and needs an allow.
var AtomicProt = &Analyzer{
	Name: "atomicprot",
	Run:  runAtomicProt,
}

func runAtomicProt(p *Pass) error {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicFuncCall(p, call) {
				p.Reportf(call.Pos(), "function-style atomic.%s: use a typed atomic (atomic.Uint64 et al.), whose every access is atomic by construction", calleeName(call))
			}
			return true
		})
	}
	checkStaleCASLoops(p)
	return nil
}

// isAtomicFuncCall reports whether call is a function-style sync/atomic
// call (atomic.LoadUint64, atomic.CompareAndSwapInt32, ...).
func isAtomicFuncCall(p *Pass, call *ast.CallExpr) bool {
	return pkgFunc(p, call, "sync/atomic", calleeName(call))
}

// isAtomicTyped reports whether t (behind pointers) is one of the typed
// atomics (atomic.Int64, atomic.Pointer[T], atomic.Value, ...).
func isAtomicTyped(t types.Type) bool {
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
	return n.Obj().Pkg().Path() == "sync/atomic"
}

// checkStaleCASLoops implements check 2.
func checkStaleCASLoops(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			ast.Inspect(loop.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				old := casExpectedArg(p, call)
				if old == nil {
					return true
				}
				id, ok := unparen(old).(*ast.Ident)
				if !ok {
					return true
				}
				obj, isVar := p.ObjectOf(id).(*types.Var)
				if !isVar {
					return true // constants (state-machine transitions) are exempt
				}
				if obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
					return true // declared (reloaded) inside the loop
				}
				if assignedWithin(p, loop.Body, obj) {
					return true
				}
				p.Reportf(call.Pos(), "CAS retry loop compares against %q, which is never reloaded inside the loop; a failed CompareAndSwap will retry with a stale expected value", id.Name)
				return true
			})
			return true
		})
	}
}

// casExpectedArg returns the expected-value argument of a typed-atomic
// x.CompareAndSwap(old, new) call, or nil when call is not one. (The
// function form is check 1's finding already.)
func casExpectedArg(p *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CompareAndSwap" || len(call.Args) == 0 || !isAtomicTyped(p.TypeOf(sel.X)) {
		return nil
	}
	return call.Args[0]
}

// assignedWithin reports whether obj is assigned (or address-taken, a
// conservative proxy for being written through a pointer) anywhere in
// body.
func assignedWithin(p *Pass, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
		}
		return true
	})
	return found
}
