package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SlabLife flags the use-after-recycle class the zero-copy state
// lifecycle made possible: once a state is handed back to a recycler
// (StatePool.Release, sync.Pool.Put, any *Pool.Release/Put/Recycle), its
// buffers will be overwritten by a future Clone — every later read
// observes another lineage's data, silently corrupting committed
// outputs.
//
// Within each function body it tracks plain identifiers passed to a
// recycling call and reports:
//
//   - any later use of the identifier (use-after-release);
//   - a second release of the same identifier (double release, which
//     puts one buffer into the free list twice and hands it to two live
//     lineages at once).
//
// Reassigning the identifier (x = fresh) kills tracking: the name no
// longer denotes the retired buffer.
//
// Soundness: the analysis is intra-procedural and position-ordered, a
// sound over-approximation for straight-line code but blind to aliases
// (y := x; pool.Release(x); use(y)), to releases reached through loops
// where a textually earlier use runs after a later release, and to
// escapes through fields before the release. The runtime chaos tests
// remain the backstop for those shapes.
var SlabLife = &Analyzer{
	Name: "slablife",
	Doc:  "flags pooled states and buffers used or re-released after being handed back to their recycler",
	Run:  runSlabLife,
}

// releaseNames are method names that retire their argument's buffers.
var releaseNames = map[string]bool{"Release": true, "Put": true, "Recycle": true}

// recyclerReceiver reports whether the method receiver looks like a
// recycler: its named type (or the sync.Pool type) contains Pool, Slab,
// or Recycler.
func recyclerReceiver(p *Pass, call *ast.CallExpr) bool {
	n := recvNamed(p, call)
	if n == nil {
		return false
	}
	name := strings.ToLower(n.Obj().Name())
	return strings.Contains(name, "pool") || strings.Contains(name, "slab") || strings.Contains(name, "recycler")
}

func runSlabLife(p *Pass) error {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncSlabLife(p, fn)
		}
	}
	return nil
}

// releaseInterval is the source span over which a released identifier is
// dead: from the release call to the end of the innermost enclosing
// block that ends in return/panic (the release cannot outlive a branch
// that terminates), truncated at the first rebind of the name.
type releaseInterval struct {
	call       *ast.CallExpr
	start, end token.Pos
}

func checkFuncSlabLife(p *Pass, fn *ast.FuncDecl) {
	// Find released identifiers.
	released := map[types.Object][]*ast.CallExpr{}
	relArgPos := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if !releaseNames[calleeName(call)] || !recyclerReceiver(p, call) {
			return true
		}
		id, ok := unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.ObjectOf(id)
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() {
			released[obj] = append(released[obj], call)
			relArgPos[id.Pos()] = true
		}
		return true
	})
	if len(released) == 0 {
		return
	}

	for obj, calls := range released {
		// Rebinds of the name end an interval: the identifier no longer
		// denotes the retired buffer.
		var kills []token.Pos
		// Uses: every other occurrence of the identifier.
		var uses []token.Pos
		killAt := map[token.Pos]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range a.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && p.ObjectOf(id) == obj {
						kills = append(kills, id.Pos())
						killAt[id.Pos()] = true
					}
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || p.ObjectOf(id) != obj {
				return true
			}
			if relArgPos[id.Pos()] || killAt[id.Pos()] || id.Pos() == obj.Pos() {
				return true
			}
			uses = append(uses, id.Pos())
			return true
		})
		sort.Slice(kills, func(i, j int) bool { return kills[i] < kills[j] })

		var intervals []releaseInterval
		for _, c := range calls {
			iv := releaseInterval{call: c, start: c.End(), end: scopeEnd(fn, c)}
			for _, k := range kills {
				if k >= iv.start && k < iv.end {
					iv.end = k
					break
				}
			}
			intervals = append(intervals, iv)
		}
		for _, iv := range intervals {
			for _, u := range uses {
				if u >= iv.start && u < iv.end {
					p.Reportf(u, "%s used after being released to its pool: its buffers may already hold another lineage's state", obj.Name())
				}
			}
			for _, other := range intervals {
				if other.call != iv.call && other.call.Pos() >= iv.start && other.call.Pos() < iv.end {
					p.Reportf(other.call.Pos(), "%s released twice: the free list would hand the same buffers to two live lineages", obj.Name())
				}
			}
		}
	}
}

// scopeEnd bounds a release's effect: the End of the innermost enclosing
// block (strictly inside the function body) whose statement list ends in
// a terminating return or panic — control cannot flow from such a branch
// to the code after it — or the function body's End otherwise.
func scopeEnd(fn *ast.FuncDecl, call *ast.CallExpr) token.Pos {
	var blocks []*ast.BlockStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > call.Pos() || n.End() < call.End() {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			blocks = append(blocks, b)
		}
		return true
	})
	// Innermost first.
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if b == fn.Body || len(b.List) == 0 {
			continue
		}
		if terminates(b.List[len(b.List)-1]) {
			return b.End()
		}
	}
	return fn.Body.End()
}

// terminates reports whether stmt definitely leaves the enclosing
// function (return or panic).
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && calleeName(call) == "panic"
	}
	return false
}
