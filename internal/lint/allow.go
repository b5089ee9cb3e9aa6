package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The allow directive is statslint's escape hatch for intentional
// nondeterminism: the simulated machine's jitter models, wall-clock
// instrumentation that never reaches committed outputs, benchmark body
// code that is *meant* to be nondeterministic. The form is
//
//	//statslint:allow [analyzer[,analyzer...]] <reason>
//
// With no analyzer list (the first token not naming a known analyzer)
// the directive suppresses every analyzer. The reason is mandatory — a
// bare //statslint:allow suppresses nothing and is itself reported by
// Run, so silent blanket waivers cannot accrete.
//
// A directive suppresses diagnostics positioned on its own line (a
// trailing comment) or, when it stands alone on its line, on the first
// following line that holds code.

const allowPrefix = "statslint:allow"

// allowDirective is one parsed directive.
type allowDirective struct {
	line      int
	analyzers map[string]bool // nil = all analyzers
	reason    string
	malformed bool // no reason given
	pos       token.Pos
	used      bool // suppressed at least one diagnostic this run
}

// parseAllow parses one comment, returning nil when it is not a
// directive. Known analyzer names are consulted to split the optional
// scope list from the reason.
func parseAllow(c *ast.Comment, fset *token.FileSet, known map[string]bool) *allowDirective {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	d := &allowDirective{line: fset.Position(c.Pos()).Line, pos: c.Pos()}
	if rest == "" {
		d.malformed = true
		return d
	}
	fields := strings.Fields(rest)
	scoped := true
	scope := map[string]bool{}
	for _, name := range strings.Split(fields[0], ",") {
		if !known[name] {
			scoped = false
			break
		}
		scope[name] = true
	}
	if scoped {
		d.analyzers = scope
		if len(fields) == 1 {
			d.malformed = true // scope but no reason
			return d
		}
		d.reason = strings.Join(fields[1:], " ")
	} else {
		d.reason = rest
	}
	return d
}

// allowIndex maps file -> line -> directives effective on that line.
type allowIndex map[string]map[int][]*allowDirective

// buildAllowIndex scans every comment of every file in pkgs, recording
// each directive on its own line and — for directives that stand alone
// on a line — on the next line as well. Malformed directives are
// returned for reporting.
func buildAllowIndex(fset *token.FileSet, pkgs []*Package, known map[string]bool) (allowIndex, []Diagnostic) {
	idx := allowIndex{}
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			file := fset.Position(f.Pos()).Filename
			// Lines that hold any non-comment code, to distinguish
			// trailing directives from standalone ones.
			codeLines := map[int]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				if _, isComment := n.(*ast.Comment); isComment {
					return false
				}
				if _, isGroup := n.(*ast.CommentGroup); isGroup {
					return false
				}
				codeLines[fset.Position(n.Pos()).Line] = true
				return true
			})
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d := parseAllow(c, fset, known)
					if d == nil {
						continue
					}
					if d.malformed {
						p := fset.Position(c.Pos())
						bad = append(bad, Diagnostic{
							Analyzer: "statslint",
							File:     p.Filename, Line: p.Line, Col: p.Column,
							Message: "malformed //statslint:allow directive: a reason is required",
						})
						continue
					}
					if idx[file] == nil {
						idx[file] = map[int][]*allowDirective{}
					}
					idx[file][d.line] = append(idx[file][d.line], d)
					if !codeLines[d.line] {
						// Standalone directive: also covers the next line.
						idx[file][d.line+1] = append(idx[file][d.line+1], d)
					}
				}
			}
		}
	}
	return idx, bad
}

// suppressed reports whether d is waived by a directive in idx, marking
// the waiving directive used (the staleness report in Run is the set of
// directives never marked).
func (idx allowIndex) suppressed(d Diagnostic) bool {
	for _, dir := range idx[d.File][d.Line] {
		if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
			dir.used = true
			return true
		}
	}
	return false
}

// staleDirectives returns a diagnostic for every directive that
// suppressed nothing. The whole suite always runs, so "unused" always
// means "no analyzer needs it".
func (idx allowIndex) staleDirectives(fset *token.FileSet) []Diagnostic {
	seen := map[*allowDirective]bool{}
	var out []Diagnostic
	for _, lines := range idx {
		for _, dirs := range lines {
			for _, dir := range dirs {
				if seen[dir] || dir.used {
					continue
				}
				seen[dir] = true
				p := fset.Position(dir.pos)
				out = append(out, Diagnostic{
					Analyzer: "statslint",
					File:     p.Filename, Line: p.Line, Col: p.Column,
					Message: "stale //statslint:allow directive: it no longer suppresses any diagnostic; remove it (reason was: " + dir.reason + ")",
				})
			}
		}
	}
	return out
}
