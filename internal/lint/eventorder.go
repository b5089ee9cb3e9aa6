package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// EventOrder checks engine.Event emission sites against the protocol
// state machine. The event stream is the single source of truth for
// every observer (Counters, Metrics, Recorder, the equivalence tests),
// so an emission that skips or reorders protocol steps silently corrupts
// overhead attribution and cross-scheduler equivalence even when the
// outputs themselves stay correct.
//
// Within each function it finds emissions — emit(Event{Kind: EvX, ...}),
// sink.Event(Event{...}) — and enforces:
//
//  1. commit-after-validate: an EvCommitted or EvAborted emission must
//     be preceded in the same function by an EvValidated emission or by
//     a read of a commit decision (an identifier starting with
//     "decision", the slot-decision protocol), so no path can declare a
//     verdict that was never decided;
//  2. retry-after-fault: an EvRetry emission requires an earlier EvFault
//     emission in the same function — a retry without an isolated fault
//     is a protocol impossibility;
//  3. degrade-needs-fault: an EvDegraded emission requires an earlier
//     EvFault emission or a reference to a fault value (an identifier or
//     field named like "fault") in the same function;
//  4. fault-site provenance: fault-class events (EvFault, EvRetry,
//     EvDegraded) may only be emitted from recovery/injection contexts —
//     functions whose name contains specul/attempt/reexec/recover/fault/
//     inject/degrad/commit/worker/retry/chaos. Ordinary pipeline stages
//     must not fabricate faults.
//
// Soundness: ordering is source-position order within one function body,
// a conservative stand-in for the CFG: it cannot see cross-function
// protocols (a helper that validated before calling) and treats textual
// precedence as dominance. Sites where that stand-in is wrong carry a
// //statslint:allow annotation with the proof.
var EventOrder = &Analyzer{
	Name: "eventorder",
	Doc:  "checks engine.Event emissions against the protocol state machine (validate before commit, fault before retry/degrade, fault-site provenance)",
	Run:  runEventOrder,
}

// faultContextNames mark functions allowed to emit fault-class events.
var faultContextNames = []string{
	"specul", "attempt", "reexec", "recover", "fault",
	"inject", "degrad", "commit", "worker", "retry", "chaos",
}

// emission is one Event literal handed to an emit/Event call.
type emission struct {
	kind string
	pos  token.Pos
	end  token.Pos
}

func runEventOrder(p *Pass) error {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncEventOrder(p, fn)
		}
	}
	return nil
}

func checkFuncEventOrder(p *Pass, fn *ast.FuncDecl) {
	emissions := collectEmissions(p, fn)
	if len(emissions) == 0 {
		return
	}
	decisionRefs := collectNameRefs(fn, func(name string) bool {
		return strings.HasPrefix(name, "decision")
	})
	faultRefs := collectNameRefs(fn, func(name string) bool {
		return strings.Contains(strings.ToLower(name), "fault")
	})
	inFaultContext := nameContainsAny(funcName(fn), faultContextNames...)

	emittedBefore := func(kind string, pos token.Pos) bool {
		for _, e := range emissions {
			if e.kind == kind && e.pos < pos {
				return true
			}
		}
		return false
	}
	refBefore := func(refs []token.Pos, pos token.Pos) bool {
		for _, r := range refs {
			if r < pos {
				return true
			}
		}
		return false
	}

	for _, e := range emissions {
		switch e.kind {
		case "EvCommitted", "EvAborted":
			if !emittedBefore("EvValidated", e.pos) && !refBefore(decisionRefs, e.pos) {
				p.Reportf(e.pos, "%s emitted without a preceding validation (no EvValidated emission or commit-decision read on this path); the commit verdict must come from the §II-B state comparison", e.kind)
			}
		case "EvRetry":
			if !emittedBefore("EvFault", e.pos) {
				p.Reportf(e.pos, "EvRetry emitted without a preceding EvFault in the same function; a retry can only follow an isolated fault")
			}
			if !inFaultContext {
				p.Reportf(e.pos, "fault-class event EvRetry emitted outside a recovery/injection context (function %q)", fn.Name.Name)
			}
		case "EvDegraded":
			if !emittedBefore("EvFault", e.pos) && !refBefore(faultRefs, e.end) {
				p.Reportf(e.pos, "EvDegraded emitted with no fault in scope (no EvFault emission or fault value read); degradation must be justified by an exhausted fault budget")
			}
			if !inFaultContext {
				p.Reportf(e.pos, "fault-class event EvDegraded emitted outside a recovery/injection context (function %q)", fn.Name.Name)
			}
		case "EvFault":
			if !inFaultContext {
				p.Reportf(e.pos, "fault-class event EvFault emitted outside a recovery/injection context (function %q); only fault isolation and injection sites may report faults", fn.Name.Name)
			}
		}
	}
}

// collectEmissions finds Event composite literals whose Kind field is an
// Ev* identifier, passed to a call (emit, Event, or any sink method).
func collectEmissions(p *Pass, fn *ast.FuncDecl) []emission {
	var out []emission
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := unparen(arg).(*ast.CompositeLit)
			if !ok {
				continue
			}
			if tn, _ := namedStruct(p.TypeOf(lit)); tn == nil || tn.Name() != "Event" {
				// Fall back to the syntactic type name for packages that
				// mirror the engine shapes (testdata).
				if id, isID := lit.Type.(*ast.Ident); !isID || id.Name != "Event" {
					continue
				}
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Kind" {
					continue
				}
				var kind string
				switch v := unparen(kv.Value).(type) {
				case *ast.Ident:
					kind = v.Name
				case *ast.SelectorExpr:
					kind = v.Sel.Name
				}
				if strings.HasPrefix(kind, "Ev") {
					out = append(out, emission{kind: kind, pos: call.Pos(), end: call.End()})
				}
			}
		}
		return true
	})
	return out
}

// collectNameRefs gathers positions of identifiers (including selector
// fields) whose name satisfies match.
func collectNameRefs(fn *ast.FuncDecl, match func(string) bool) []token.Pos {
	var refs []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && match(id.Name) {
			refs = append(refs, id.Pos())
		}
		return true
	})
	return refs
}
