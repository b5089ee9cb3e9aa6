package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// HotAlloc flags allocation sites inside hot-path functions — the code
// that runs once per input or once per pipeline hop, where PR 7's
// benchmark work drove allocations to near zero. TestPipelineAllocations
// and the repository benchmark's alloc_b_per_input catch a regression
// only after it lands and only on the paths they run; this check names
// the allocating expression at review time, on every hot function.
//
// A function is hot when its package matches Config.HotPathPackages,
// its file is listed in Config.HotPathFiles, or its doc comment carries
// //statslint:hotpath. Constructors (New*/new*) and init functions are
// exempt — they allocate once at setup, not per input.
//
// Inside a hot function it reports the five allocation classes that
// have bitten this codebase:
//
//   - append whose destination was not locally pre-sized with a 3-arg
//     make (growth reallocates and copies on the steady-state path);
//   - map and slice composite literals (each evaluation allocates);
//   - implicit interface conversions at call boundaries — a concrete
//     value passed to an interface parameter (including variadic ...any,
//     so fmt on a hot path is flagged) boxes to the heap;
//   - string <-> []byte conversions (each one copies the bytes);
//   - closures that capture variables, unless immediately invoked —
//     deferred, spawned, or stored closures allocate their capture
//     environment.
//
// Soundness: syntactic and local. It cannot see escape analysis (some
// flagged sites are stack-allocated in practice; the annotation burden
// buys review attention on exactly the sites where that must be
// argued), pre-sizing done by a helper (annotate with the invariant
// that bounds the append), or allocation hidden behind calls into other
// packages.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation sites (append growth, literals, interface boxing, string/[]byte copies, escaping closures) in hot-path functions",
	Run:  runHotAlloc,
}

const hotpathDirective = "statslint:hotpath"

func runHotAlloc(p *Pass) error {
	pkgHot := false
	for _, prefix := range p.Config.HotPathPackages {
		if prefix == "" || p.Pkg.Path == prefix ||
			(len(p.Pkg.Path) > len(prefix) && strings.HasPrefix(p.Pkg.Path, prefix) && p.Pkg.Path[len(prefix)] == '/') {
			pkgHot = true
			break
		}
	}
	hotFiles := map[string]bool{}
	for _, base := range p.Config.HotPathFiles[p.Pkg.Path] {
		hotFiles[base] = true
	}
	for _, f := range p.Pkg.Files {
		fileHot := pkgHot || hotFiles[filepath.Base(p.Fset.Position(f.Pos()).Filename)]
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !fileHot && !hasHotpathDirective(fd) {
				continue
			}
			if isInitOrConstructor(fd) {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
	return nil
}

// hasHotpathDirective reports whether fd's doc comment carries
// //statslint:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), hotpathDirective) {
			return true
		}
	}
	return false
}

// checkHotFunc reports the five allocation classes within one hot
// function body.
func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	presized := presizedSlices(p, fd.Body)
	immediate := immediatelyInvokedLits(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, fd, n, presized)
		case *ast.CompositeLit:
			if t := p.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					p.Reportf(n.Pos(), "map literal allocates on the hot path; hoist it out of the per-input flow or annotate why it is setup-only")
				case *types.Slice:
					p.Reportf(n.Pos(), "slice literal allocates on the hot path; hoist it out of the per-input flow or annotate why it is setup-only")
				}
			}
		case *ast.FuncLit:
			if !immediate[n] {
				if captured := capturedVars(p, fd, n); len(captured) > 0 {
					p.Reportf(n.Pos(), "closure captures %s and escapes on the hot path, allocating its environment; hoist the state into a struct or annotate why this runs off the steady-state path", strings.Join(captured, ", "))
				}
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped classes: append growth,
// string<->[]byte conversions, and interface boxing.
func checkHotCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, presized map[types.Object]bool) {
	// Conversions: T(x) parses as a CallExpr whose Fun denotes a type.
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkConversion(p, call, tv.Type, p.TypeOf(call.Args[0]))
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 0 {
				root := rootIdent(call.Args[0])
				if root == nil || !presized[p.ObjectOf(root)] {
					p.Reportf(call.Pos(), "append on the hot path may grow and reallocate the backing array; pre-size with make(T, len, cap) or annotate the invariant that bounds the length")
				}
			}
			return
		}
	}
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	checkInterfaceBoxing(p, call, sig)
}

// checkConversion flags string<->[]byte conversions.
func checkConversion(p *Pass, call *ast.CallExpr, to, from types.Type) {
	if to == nil || from == nil {
		return
	}
	if isString(to) && isByteSlice(from) {
		p.Reportf(call.Pos(), "[]byte-to-string conversion copies the bytes on the hot path; keep one representation or annotate why the copy is required")
	}
	if isByteSlice(to) && isString(from) {
		p.Reportf(call.Pos(), "string-to-[]byte conversion copies the bytes on the hot path; keep one representation or annotate why the copy is required")
	}
	if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) {
		p.Reportf(call.Pos(), "conversion to interface boxes a %s on the hot path; keep the concrete type or annotate why this site is cold", from.String())
	}
}

// checkInterfaceBoxing flags concrete arguments passed to interface
// parameters, including the variadic ...any tail (fmt.Sprintf and
// friends).
func checkInterfaceBoxing(p *Pass, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg.Pos(), "passing %s to an interface parameter boxes it on the hot path; use a concrete-typed path or annotate why this call is off the steady state", at.String())
	}
}

// presizedSlices collects objects initialized with a 3-arg make — the
// only local shape under which append provably cannot grow past the
// pre-sized capacity the author chose.
func presizedSlices(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i, rhs := range a.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok || calleeName(call) != "make" || len(call.Args) != 3 {
				continue
			}
			if id, ok := unparen(a.Lhs[i]).(*ast.Ident); ok {
				if obj := p.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// immediatelyInvokedLits collects function literals called in place —
// (func(){...})() — which never allocate a closure environment on their
// own. Deferred and go'd literals are excluded on purpose: both
// allocate.
func immediatelyInvokedLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			deferred[n.Call] = true
		}
		return true
	})
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferred[call] {
			return true
		}
		if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			out[lit] = true
		}
		return true
	})
	return out
}

// capturedVars lists (up to three of) the enclosing function's
// variables a literal captures: identifiers resolving to variables
// declared in fd but outside lit.
func capturedVars(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, isVar := p.ObjectOf(id).(*types.Var)
		if !isVar || obj.IsField() || seen[obj] {
			return true
		}
		pos := obj.Pos()
		if pos < fd.Pos() || pos >= fd.End() {
			return true // package-level or foreign: not a capture of fd's frame
		}
		if pos >= lit.Pos() && pos < lit.End() {
			return true // the literal's own params and locals
		}
		seen[obj] = true
		if len(names) < 3 {
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
