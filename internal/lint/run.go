package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Run executes the whole suite over every package, applies the
// //statslint:allow suppression index, and returns the surviving
// diagnostics — malformed allow directives and stale ones included —
// sorted by file, line, column, and analyzer. cfg nil means
// DefaultConfig.
//
// A stale directive is one that suppressed nothing: a contract nobody
// holds anymore. Either the code it excused was fixed — delete it — or the
// analyzer stopped seeing the site and the waiver silently widened.
func Run(cfg *Config, fset *token.FileSet, pkgs []*Package) ([]Diagnostic, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	idx, diags := buildAllowIndex(fset, pkgs, known)
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, Config: cfg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !idx.suppressed(d) {
					diags = append(diags, d)
				}
			}
		}
	}
	diags = append(diags, idx.staleDirectives(fset)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
