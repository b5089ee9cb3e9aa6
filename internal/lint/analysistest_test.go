package lint

// This file is the suite's analysistest-style harness: it loads a
// testdata package (invisible to go build), runs the suite over it with
// the //statslint:allow index applied — exactly the production pipeline,
// Run — and compares the surviving diagnostics against `// want "regex"`
// comments in the testdata source. Every analyzer's test exercises both
// directions: at least three flagged shapes (each diagnostic must be
// announced by a want on its line) and at least three clean shapes (any
// diagnostic without a want fails the test).

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantExpectation is one `// want "regex"` marker in testdata source.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// RunAnalyzerTest loads the single package in dir, runs the suite over
// it with cfg (nil means DefaultConfig), and checks the diagnostics
// against the want markers. Allow directives in the testdata are honored,
// so a test can also pin down the suppression behavior.
func RunAnalyzerTest(t *testing.T, dir string, cfg *Config) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := LoadDir(dir, ".", fset)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata in %s must type-check cleanly; got %v", dir, pkg.TypeErrors)
	}
	diags, err := Run(cfg, fset, []*Package{pkg})
	if err != nil {
		t.Fatalf("running the suite on %s: %v", dir, err)
	}
	wants := collectWants(t, fset, pkg)
	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// collectWants extracts every want marker. The accepted forms are
// `// want "regex"` and `// want "re1" "re2"` (double-quoted Go string
// syntax or backquotes), positioned as a trailing comment on the line
// the diagnostic is expected on.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*wantExpectation {
	t.Helper()
	var out []*wantExpectation
	strRE := regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := strRE.FindAllString(text[len("want "):], -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					var pattern string
					if m[0] == '`' {
						pattern = m[1 : len(m)-1]
					} else {
						unq, err := strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, m, err)
						}
						pattern = unq
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					out = append(out, &wantExpectation{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
				}
			}
		}
	}
	return out
}

// claimWant marks the first unmatched want on the diagnostic's line
// whose regexp matches the message.
func claimWant(wants []*wantExpectation, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
