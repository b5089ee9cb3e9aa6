package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Detpath flags sources of nondeterminism inside determinism-critical
// packages (Config.CriticalPrefixes): code whose observable behavior
// must be a pure function of (inputs, seed) so that committed outputs
// stay byte-identical across schedulers and fault-recovery paths.
//
// It reports:
//
//   - iteration over a map, whose order varies run to run, unless the
//     loop body is provably order-insensitive (only delete/map-index
//     writes from loop variables, or commutative integer accumulation);
//   - wall-clock reads (time.Now, Since, Until, After, Tick, NewTimer,
//     NewTicker, AfterFunc) — real time must never feed protocol
//     decisions or outputs;
//   - any use of math/rand or math/rand/v2 — all randomness must come
//     from the seeded, splittable internal/rng streams (see the rng
//     determinism property test for why those are exempt);
//   - internal/rng streams seeded from the clock (rng.New(...UnixNano...));
//   - select statements with two or more ready channels in commit- or
//     validation-path functions, which the runtime resolves by a coin
//     flip (cancellation-only cases like <-ctx.Done() are exempt: they
//     can only abort a session, never reorder its outputs).
//
// Interprocedural extension (callgraph.go): a package-local helper
// whose summary says it returns a wall-clock-derived value (returnsClock
// — e.g. `func (rt *run) now() time.Time { return time.Now() }`) or is
// a Since-shaped elapsed helper (elapsed) is treated exactly like
// time.Now / time.Since at its call sites. An allow inside the helper
// waives the helper's own read, not the caller's use of the value, so
// `t0 := rt.now(); if rt.since(t0) > budget` is flagged at the caller
// even when the helper body is annotated.
//
// Soundness: detpath is package- and syntax-scoped. It does not track
// whether a flagged value actually flows into outputs — inside a
// critical package every such source is guilty until annotated with
// //statslint:allow <reason>. The helper summaries stop at package
// boundaries and at calls through interfaces or function values; a
// clock-returning helper reached that way is invisible (see DESIGN.md,
// "Static enforcement").
var Detpath = &Analyzer{
	Name: "detpath",
	Run:  runDetpath,
}

// timeFuncs are the value-producing wall-clock entry points. time.Sleep
// is deliberately absent: it shifts timing but produces no value that
// could reach an output.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runDetpath(p *Pass) error {
	if !p.Config.IsCritical(p.Pkg.Path) {
		return nil
	}
	sums := p.summaries()
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s in determinism-critical package: draw from a seeded internal/rng stream instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(p, n)
			case *ast.CallExpr:
				checkClockSeededRNG(p, n)
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				checkTimeCalls(p, sums, n)
				if nameContainsAny(funcName(n), "commit", "validate", "decide", "frontier") {
					checkMultiReadySelects(p, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkTimeCalls flags value-producing wall-clock calls in fn — direct
// time.X calls and calls to package-local helpers whose summary says
// they return a clock-derived value — with one principled exemption: a
// reading that flows only into protocol *instrumentation* — an engine
// Event literal's Start/Dur fields, or a Since/Sub elapsed-time
// computation that itself lands in an Event literal — never reaches a
// protocol decision or output, so
// `t0 := time.Now(); ...; emit(Event{Start: t0, Dur: time.Since(t0)})`
// is clean while `if time.Since(t0) > budget` is flagged.
func checkTimeCalls(p *Pass, sums *summarySet, fn *ast.FuncDecl) {
	eventLits := eventLiteralRanges(p, fn)
	inEventLit := func(pos token.Pos) bool {
		for _, r := range eventLits {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		direct := ""
		helper := ""
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok &&
			timeFuncs[sel.Sel.Name] && pkgFunc(p, call, "time", sel.Sel.Name) {
			direct = sel.Sel.Name
		} else if callee := sums.localCallee(p, call); callee != nil {
			if sum := sums.summary(callee); sum.returnsClock || sum.elapsed {
				helper = callee.Name()
			}
		}
		if direct == "" && helper == "" {
			return true
		}
		if inEventLit(call.Pos()) || timeFlowsOnlyToInstrumentation(p, sums, fn, call, inEventLit) {
			return true
		}
		if direct != "" {
			p.Reportf(call.Pos(), "wall-clock read time.%s on a determinism-critical path; protocol decisions and outputs must be a pure function of (inputs, seed)", direct)
		} else {
			p.Reportf(call.Pos(), "call to %s returns a wall-clock-derived value on a determinism-critical path; the result must only feed instrumentation (an allow inside the helper does not cover this use)", helper)
		}
		return true
	})
}

// eventLiteralRanges returns the [pos, end) source ranges of engine
// Event composite literals in fn.
func eventLiteralRanges(p *Pass, fn *ast.FuncDecl) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if tn, _ := namedStruct(p.TypeOf(lit)); tn != nil && tn.Name() == "Event" {
			out = append(out, [2]token.Pos{lit.Pos(), lit.End()})
		} else if id, isID := lit.Type.(*ast.Ident); isID && id.Name == "Event" {
			out = append(out, [2]token.Pos{lit.Pos(), lit.End()})
		}
		return true
	})
	return out
}

// isElapsedCall reports whether c computes an elapsed duration: a
// Since/since/Sub call by name, or a call to a package-local helper
// whose summary is elapsed (Since-shaped, callgraph.go).
func isElapsedCall(p *Pass, sums *summarySet, c *ast.CallExpr) bool {
	name := strings.ToLower(calleeName(c))
	if name == "since" || name == "sub" {
		return true
	}
	if callee := sums.localCallee(p, c); callee != nil && sums.summary(callee).elapsed {
		return true
	}
	return false
}

// timeFlowsOnlyToInstrumentation reports whether the time call is the
// sole initializer of a local variable all of whose uses are inside
// Event literals or arguments to an elapsed-time helper (Since, since,
// Sub, or a summary-identified local equivalent) — the
// instrumentation-only flow shape.
func timeFlowsOnlyToInstrumentation(p *Pass, sums *summarySet, fn *ast.FuncDecl, call *ast.CallExpr, inEventLit func(token.Pos) bool) bool {
	// The call must be the single RHS of `x := call` / `x = call`.
	var obj types.Object
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 || unparen(a.Rhs[0]) != call || len(a.Lhs) != 1 {
			return true
		}
		if id, ok := unparen(a.Lhs[0]).(*ast.Ident); ok {
			obj = p.ObjectOf(id)
		}
		return true
	})
	if obj == nil {
		return false
	}
	clean := true
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || !isElapsedCall(p, sums, c) {
			return true
		}
		for _, arg := range c.Args {
			if id, ok := unparen(arg).(*ast.Ident); ok && p.ObjectOf(id) == obj {
				// The elapsed value itself must land in instrumentation.
				if !inEventLit(c.Pos()) && !durationFlowsToEvent(p, fn, c, inEventLit) {
					clean = false
				}
			}
		}
		return true
	})
	if !clean {
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || p.ObjectOf(id) != obj {
			return true
		}
		if id.Pos() == definingPos(fn, obj) {
			return true
		}
		if inEventLit(id.Pos()) || isSinceArg(p, sums, fn, id) {
			return true
		}
		clean = false
		return true
	})
	return clean
}

// durationFlowsToEvent reports whether a Since/Sub call's result is the
// sole initializer of a variable used only inside Event literals.
func durationFlowsToEvent(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr, inEventLit func(token.Pos) bool) bool {
	var obj types.Object
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 || unparen(a.Rhs[0]) != call || len(a.Lhs) != 1 {
			return true
		}
		if id, ok := unparen(a.Lhs[0]).(*ast.Ident); ok {
			obj = p.ObjectOf(id)
		}
		return true
	})
	if obj == nil {
		return false
	}
	clean := true
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || p.ObjectOf(id) != obj || id.Pos() == definingPos(fn, obj) {
			return true
		}
		if !inEventLit(id.Pos()) {
			clean = false
		}
		return true
	})
	return clean
}

// definingPos returns the position of obj's defining identifier.
func definingPos(fn *ast.FuncDecl, obj types.Object) token.Pos {
	return obj.Pos()
}

// isSinceArg reports whether id is an argument to an elapsed-time call
// (Since/since/Sub by name, or a summary-identified local helper).
func isSinceArg(p *Pass, sums *summarySet, fn *ast.FuncDecl, id *ast.Ident) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || !isElapsedCall(p, sums, c) {
			return true
		}
		for _, arg := range c.Args {
			if unparen(arg) == id {
				found = true
			}
		}
		return true
	})
	return found
}

// checkClockSeededRNG flags rng.New / rng.Stream derivations whose seed
// expression reads the clock — the one way a seeded stream becomes
// nondeterministic again.
func checkClockSeededRNG(p *Pass, call *ast.CallExpr) {
	if !pkgFunc(p, call, "gostats/internal/rng", "New") {
		return
	}
	for _, arg := range call.Args {
		clock := false
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(inner) {
			case "UnixNano", "Unix", "UnixMicro", "UnixMilli":
				clock = true
			case "Now":
				if pkgFunc(p, inner, "time", "Now") {
					clock = true
				}
			}
			return true
		})
		if clock {
			p.Reportf(call.Pos(), "rng.New seeded from the wall clock: runs become unreproducible; thread a fixed or configured seed instead")
			return
		}
	}
}

// checkMultiReadySelects flags selects that can have two or more
// simultaneously ready communications inside commit/validate functions.
func checkMultiReadySelects(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		ready := 0
		for _, clause := range sel.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue // default clause
			}
			if isCancellationComm(comm.Comm) {
				continue
			}
			ready++
		}
		if ready >= 2 {
			p.Reportf(sel.Pos(), "select with %d ready channels in a commit/validate path resolves nondeterministically; serialize the sources or annotate the proof that order cannot reach outputs", ready)
		}
		return true
	})
}

// isCancellationComm reports whether a select communication is a receive
// from a context's Done channel (<-ctx.Done() in any statement shape).
func isCancellationComm(stmt ast.Stmt) bool {
	var recv ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	u, ok := unparen(recv).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	call, ok := unparen(u.X).(*ast.CallExpr)
	return ok && calleeName(call) == "Done"
}

// checkMapRange flags ranges over maps whose body is not provably
// order-insensitive.
func checkMapRange(p *Pass, rs *ast.RangeStmt) {
	if !isMap(p.TypeOf(rs.X)) {
		return
	}
	if orderInsensitiveBody(p, rs) {
		return
	}
	p.Reportf(rs.For, "iteration over map has nondeterministic order on a determinism-critical path; iterate a sorted key slice, or annotate with //statslint:allow if order provably cannot reach outputs or events")
}

// orderInsensitiveBody reports whether every statement of a map-range
// body commutes across iteration orders: deletes, writes into map
// elements keyed by the loop variables, and integer accumulation
// (integer + and bitwise ops are associative and commutative; float
// accumulation is not and stays flagged).
func orderInsensitiveBody(p *Pass, rs *ast.RangeStmt) bool {
	isLoopVar := func(id *ast.Ident) bool {
		obj := p.ObjectOf(id)
		if obj == nil {
			return false
		}
		for _, v := range []ast.Expr{rs.Key, rs.Value} {
			if vid, ok := v.(*ast.Ident); ok && p.ObjectOf(vid) == obj {
				return true
			}
		}
		return false
	}
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || calleeName(call) != "delete" {
				return false
			}
		case *ast.IncDecStmt:
			if !isInteger(p.TypeOf(s.X)) {
				return false
			}
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(p, s, isLoopVar) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// orderInsensitiveAssign accepts two shapes: commutative integer
// accumulation (x += e, x |= e, ...) and writes into another map indexed
// by loop variables (m2[k] = f(k, v)) whose index and RHS only read the
// loop variables and package-level declarations, never loop-carried
// state.
func orderInsensitiveAssign(p *Pass, s *ast.AssignStmt, isLoopVar func(*ast.Ident) bool) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		for _, lhs := range s.Lhs {
			if !isInteger(p.TypeOf(lhs)) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			ix, ok := unparen(lhs).(*ast.IndexExpr)
			if !ok || !isMap(p.TypeOf(ix.X)) {
				return false
			}
			if !readsOnlyLoopSafe(p, ix.Index, isLoopVar) || !readsOnlyLoopSafe(p, s.Rhs[i], isLoopVar) {
				return false
			}
		}
		return true
	}
	return false
}

// readsOnlyLoopSafe reports whether every identifier in e resolves to a
// loop variable, a constant, a function, a type, or a package name —
// anything but a variable that could carry state between iterations.
// Fields selected from a safe root (v.Field) are safe too.
func readsOnlyLoopSafe(p *Pass, e ast.Expr, isLoopVar func(*ast.Ident) bool) bool {
	ok := true
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Only the root of a selector chain matters.
			if root := rootIdent(n); root != nil {
				if !loopSafeIdent(p, root, isLoopVar) {
					ok = false
				}
				return false
			}
		case *ast.Ident:
			if !loopSafeIdent(p, n, isLoopVar) {
				ok = false
			}
		}
		return true
	}
	ast.Inspect(e, visit)
	return ok
}

// loopSafeIdent classifies one identifier for the map-write exemption.
func loopSafeIdent(p *Pass, id *ast.Ident, isLoopVar func(*ast.Ident) bool) bool {
	if isLoopVar(id) {
		return true
	}
	switch p.ObjectOf(id).(type) {
	case *types.Const, *types.Func, *types.TypeName, *types.PkgName, *types.Builtin, *types.Nil:
		return true
	}
	return false
}
