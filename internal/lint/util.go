package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared AST/type helpers for the analyzers.

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isInteger reports whether t is an integer type (commutative-update
// exemption in detpath's map-range check).
func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pkgFunc matches a call to a package-level function: it reports whether
// call is pkgPath.name(...), resolving the selector through the
// type-checker (so aliased imports still match).
func pkgFunc(p *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// calleeName returns the bare name of the called function or method, or
// "".
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// namedStruct resolves t (possibly behind a pointer) to a named type
// whose underlying type is a struct, returning the name object and the
// struct, or nils.
func namedStruct(t types.Type) (*types.TypeName, *types.Struct) {
	if t == nil {
		return nil, nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return n.Obj(), s
}

// funcName lowers a function declaration's name for substring matching;
// methods get "recvtype.name".
func funcName(decl *ast.FuncDecl) string {
	return strings.ToLower(decl.Name.Name)
}

// nameContainsAny reports whether s (already lowercase) contains any of
// the substrings.
func nameContainsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// rootIdent walks to the left-most identifier of a chain of selector,
// index, and slice expressions: rootIdent(a.b[i].c) == a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
