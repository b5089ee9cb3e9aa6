package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseAllowAt parses text as a comment at a synthetic position.
func parseAllowAt(t *testing.T, text string) (*allowDirective, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, len(text)+10)
	f.AddLine(0)
	c := &ast.Comment{Slash: f.Pos(0), Text: text}
	known := map[string]bool{"detpath": true, "atomicprot": true}
	return parseAllow(c, fset, known), fset
}

func TestParseAllowDirective(t *testing.T) {
	cases := []struct {
		text      string
		directive bool
		malformed bool
		analyzers []string // nil = all
		reason    string
	}{
		{"// just a comment", false, false, nil, ""},
		{"//statslint:allow detpath keys are sorted", true, false, []string{"detpath"}, "keys are sorted"},
		{"//statslint:allow detpath,atomicprot shared buffer is read-only", true, false, []string{"detpath", "atomicprot"}, "shared buffer is read-only"},
		{"//statslint:allow order cannot reach outputs", true, false, nil, "order cannot reach outputs"},
		{"//statslint:allow", true, true, nil, ""},
		{"//statslint:allow detpath", true, true, nil, ""},
	}
	for _, tc := range cases {
		d, _ := parseAllowAt(t, tc.text)
		if (d != nil) != tc.directive {
			t.Errorf("%q: directive=%v, want %v", tc.text, d != nil, tc.directive)
			continue
		}
		if d == nil {
			continue
		}
		if d.malformed != tc.malformed {
			t.Errorf("%q: malformed=%v, want %v", tc.text, d.malformed, tc.malformed)
			continue
		}
		if tc.malformed {
			continue
		}
		if tc.analyzers == nil {
			if d.analyzers != nil {
				t.Errorf("%q: scoped to %v, want all-analyzer scope", tc.text, d.analyzers)
			}
		} else {
			for _, name := range tc.analyzers {
				if !d.analyzers[name] {
					t.Errorf("%q: missing analyzer %q in scope", tc.text, name)
				}
			}
			if len(d.analyzers) != len(tc.analyzers) {
				t.Errorf("%q: scope %v, want %v", tc.text, d.analyzers, tc.analyzers)
			}
		}
		if d.reason != tc.reason {
			t.Errorf("%q: reason %q, want %q", tc.text, d.reason, tc.reason)
		}
	}
}

func TestAllowSuppression(t *testing.T) {
	idx := allowIndex{
		"x.go": {
			10: {&allowDirective{line: 10, analyzers: map[string]bool{"detpath": true}}},
			20: {&allowDirective{line: 20}}, // all analyzers
		},
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{Diagnostic{Analyzer: "detpath", File: "x.go", Line: 10}, true},
		{Diagnostic{Analyzer: "atomicprot", File: "x.go", Line: 10}, false},
		{Diagnostic{Analyzer: "atomicprot", File: "x.go", Line: 20}, true},
		{Diagnostic{Analyzer: "detpath", File: "x.go", Line: 11}, false},
		{Diagnostic{Analyzer: "detpath", File: "y.go", Line: 10}, false},
	}
	for _, tc := range cases {
		if got := idx.suppressed(tc.d); got != tc.want {
			t.Errorf("suppressed(%+v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// maxAllows is how many //statslint:allow directives the module may hold
// outside the linter itself: each is a place the design argues with its
// own rules. A change that removes one lowers this number; a change that
// adds one raises it in its own diff.
const maxAllows = 3

// TestAllowRatchet counts the allow directives in the module's Go files,
// outside internal/lint and cmd/statslint (whose testdata and docs spell
// them on purpose), and fails when there are more than maxAllows.
func TestAllowRatchet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			skip := rel == filepath.Join("internal", "lint") || rel == filepath.Join("cmd", "statslint") ||
				rel != "." && strings.HasPrefix(d.Name(), ".")
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
				skip = true // a nested module is not this module
			}
			if skip {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if parseAllow(c, fset, nil) != nil {
					found = append(found, fmt.Sprintf("%s: %s", fset.Position(c.Pos()), c.Text))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > maxAllows {
		t.Errorf("%d //statslint:allow directives, at most %d allowed:\n%s", len(found), maxAllows, strings.Join(found, "\n"))
	}
}
