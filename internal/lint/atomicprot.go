package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
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
//  1. Mixed access — a variable or struct field ever passed to a
//     function-style sync/atomic call (atomic.AddUint64(&x, 1), ...)
//     that is also read or written plainly elsewhere. Initialization is
//     exempt: plain access inside `init` or New*/new* constructors
//     happens before the value is published. (The typed atomics —
//     atomic.Int64 et al. — make mixed access impossible by
//     construction, which is why the repo uses them; this check guards
//     the function-style escape hatch.)
//  2. Stale CAS retry — a CompareAndSwap inside a loop whose expected
//     value is a variable declared outside the loop and never
//     reassigned inside it. When the CAS fails, the next iteration
//     compares against the same stale value and the loop either spins
//     forever or, worse, succeeds against a value someone else already
//     changed the meaning of. Constant expected values (one-way
//     transitions like closed.CompareAndSwap(false, true)) are exempt:
//     they are not snapshots that can go stale.
//  3. Atomics on copied structs — an atomic method call (x.count.Add(1))
//     where the struct holding the atomic was copied by value: a value
//     receiver, a by-value struct parameter, or a local `c := *p` /
//     `c := v` copy. The atomic op then synchronizes on the copy's
//     memory, not the shared original, which is always a bug (the
//     sync/atomic types even contain noCopy fields so `go vet` flags
//     the copy itself — this check flags the op, where the damage is).
//
// Soundness: package-scoped and syntactic. Aliasing through pointers
// (p := &s.x; *p = 1) is invisible to check 1; a CAS loop whose exit
// condition makes the stale retry unreachable still gets flagged by
// check 2 and needs an allow; check 3 does not track copies made by
// passing structs through channels or interfaces.
var AtomicProt = &Analyzer{
	Name: "atomicprot",
	Run:  runAtomicProt,
}

// atomicFuncPrefixes match the function-style sync/atomic entry points
// that target a *addr first argument.
var atomicFuncPrefixes = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "Or", "And"}

func runAtomicProt(p *Pass) error {
	checkMixedAccess(p)
	checkStaleCASLoops(p)
	checkAtomicOnCopies(p)
	return nil
}

// isAtomicFuncCall reports whether call is a function-style sync/atomic
// call (atomic.LoadUint64, atomic.CompareAndSwapInt32, ...).
func isAtomicFuncCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for _, prefix := range atomicFuncPrefixes {
		if strings.HasPrefix(sel.Sel.Name, prefix) && pkgFunc(p, call, "sync/atomic", sel.Sel.Name) {
			return true
		}
	}
	return false
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

// atomicTarget resolves the &target first argument of a function-style
// atomic call to the object (package-level or local var) or struct
// field it addresses.
func atomicTarget(p *Pass, call *ast.CallExpr) (types.Object, *types.Var) {
	if len(call.Args) == 0 {
		return nil, nil
	}
	u, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	switch x := unparen(u.X).(type) {
	case *ast.Ident:
		return p.ObjectOf(x), nil
	case *ast.SelectorExpr:
		if f := structField(p, x); f != nil {
			return nil, f
		}
		// Qualified package-level var (pkg.Counter).
		return p.ObjectOf(x.Sel), nil
	case *ast.IndexExpr:
		// &arr[i]: attribute to the array's field/var.
		if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok {
			if f := structField(p, sel); f != nil {
				return nil, f
			}
		}
		if id, ok := unparen(x.X).(*ast.Ident); ok {
			return p.ObjectOf(id), nil
		}
	}
	return nil, nil
}

// checkMixedAccess implements check 1.
func checkMixedAccess(p *Pass) {
	// Pass A: every atomically-accessed var object and struct field, and
	// the source ranges of the atomic calls themselves (accesses inside
	// those ranges are the atomic accesses, not violations).
	atomicVars := map[types.Object]bool{}
	atomicFields := map[*types.Var]bool{}
	var atomicRanges [][2]token.Pos
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(p, call) {
				return true
			}
			atomicRanges = append(atomicRanges, [2]token.Pos{call.Pos(), call.End()})
			obj, field := atomicTarget(p, call)
			if field != nil {
				atomicFields[field] = true
			} else if obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					atomicVars[obj] = true
				}
			}
			return true
		})
	}
	if len(atomicVars) == 0 && len(atomicFields) == 0 {
		return
	}
	inAtomic := func(pos token.Pos) bool {
		for _, r := range atomicRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	// Pass B: plain accesses to those targets outside init/constructors.
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isInitOrConstructor(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if field := structField(p, n); field != nil && atomicFields[field] && !inAtomic(n.Pos()) {
						p.Reportf(n.Pos(), "plain access to field %q, which is accessed atomically elsewhere; every access must go through sync/atomic (or move init-time setup into the constructor)", field.Name())
						return false
					}
				case *ast.Ident:
					if obj := p.ObjectOf(n); obj != nil && atomicVars[obj] && !inAtomic(n.Pos()) {
						if _, isDef := p.Pkg.Info.Defs[n]; isDef {
							return true
						}
						p.Reportf(n.Pos(), "plain access to %q, which is accessed atomically elsewhere; every access must go through sync/atomic (or move init-time setup into the constructor)", n.Name)
					}
				}
				return true
			})
		}
	}
}

// isInitOrConstructor exempts publication-time code from check 1: init
// functions and New*/new* constructors build the value before any other
// goroutine can see it.
func isInitOrConstructor(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return name == "init" || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
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

// casExpectedArg returns the expected-value argument of a CompareAndSwap
// call: Args[0] for the typed-atomic method form x.CompareAndSwap(old,
// new), Args[1] for the function form atomic.CompareAndSwapT(&x, old,
// new). nil when call is neither.
func casExpectedArg(p *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
		return nil
	}
	if pkgFunc(p, call, "sync/atomic", sel.Sel.Name) {
		if len(call.Args) >= 2 {
			return call.Args[1]
		}
		return nil
	}
	if isAtomicTyped(p.TypeOf(sel.X)) && len(call.Args) >= 1 {
		return call.Args[0]
	}
	return nil
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

// checkAtomicOnCopies implements check 3.
func checkAtomicOnCopies(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Copies visible in this function: by-value receiver,
			// by-value struct params, and local value copies of structs
			// that contain atomics.
			copies := map[types.Object]string{}
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				name := fd.Recv.List[0].Names[0]
				if obj := p.Pkg.Info.Defs[name]; obj != nil && isValueStructWithAtomics(obj.Type()) {
					copies[obj] = "by-value receiver"
				}
			}
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Pkg.Info.Defs[name]; obj != nil && isValueStructWithAtomics(obj.Type()) {
						copies[obj] = "by-value parameter"
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if a, ok := n.(*ast.AssignStmt); ok && a.Tok == token.DEFINE && len(a.Lhs) == len(a.Rhs) {
					for i, lhs := range a.Lhs {
						id, ok := unparen(lhs).(*ast.Ident)
						if !ok {
							continue
						}
						if !isValueStructWithAtomics(p.TypeOf(lhs)) {
							continue
						}
						switch unparen(a.Rhs[i]).(type) {
						case *ast.StarExpr, *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
							// Copies an existing value (vs. a fresh
							// composite literal, which is an original).
							if obj := p.Pkg.Info.Defs[id]; obj != nil {
								copies[obj] = "local copy"
							}
						}
					}
				}
				return true
			})
			if len(copies) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, root := atomicOpRoot(p, call)
				if root == nil {
					return true
				}
				if kind, copied := copies[p.ObjectOf(root)]; copied {
					p.Reportf(call.Pos(), "atomic %s on %s %q: the struct was copied by value, so this synchronizes on the copy's memory, not the shared original", sel, kind, root.Name)
				}
				return true
			})
		}
	}
}

// isValueStructWithAtomics reports whether t is a non-pointer named (or
// anonymous) struct type that contains sync/atomic fields, directly or
// in nested structs/arrays (bounded depth).
func isValueStructWithAtomics(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	return structHasAtomics(t, 0)
}

func structHasAtomics(t types.Type, depth int) bool {
	if t == nil || depth > 3 {
		return false
	}
	if isAtomicTyped(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if structHasAtomics(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return structHasAtomics(u.Elem(), depth+1)
	}
	return false
}

// atomicOpRoot matches an atomic operation on a struct-held atomic —
// x.field.Load() (typed method) or atomic.AddUint64(&x.field, 1)
// (function style) — returning a short description and the root
// identifier of the struct expression, or nils.
func atomicOpRoot(p *Pass, call *ast.CallExpr) (string, *ast.Ident) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if isAtomicFuncCall(p, call) {
		if len(call.Args) > 0 {
			if u, ok := unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
				if root := rootIdent(u.X); root != nil {
					return sel.Sel.Name, root
				}
			}
		}
		return "", nil
	}
	if isAtomicTyped(p.TypeOf(sel.X)) {
		if root := rootIdent(sel.X); root != nil {
			return sel.Sel.Name, root
		}
	}
	return "", nil
}
