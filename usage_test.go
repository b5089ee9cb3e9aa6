package gostats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// usageFlag is one -name token in a usage line: a dash at the start of
// the line, after a space or after an opening bracket.
var usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)

// flagNameArg maps the flag-defining methods of package flag (and of a
// *flag.FlagSet) to the argument that holds the flag's name.
func flagNameArg(method string) (int, bool) {
	switch method {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
		return 0, true
	}
	if strings.HasSuffix(method, "Var") {
		return 1, true
	}
	return 0, false
}

// TestCommandUsageMatchesFlags: every command's package doc lists, in its
// indented usage block, exactly the flags its main.go registers — no
// flag the command lacks, none it has left out.
func TestCommandUsageMatchesFlags(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var registered []string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
				return true
			}
			i, ok := flagNameArg(sel.Sel.Name)
			if !ok || i >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("%s: flag name %s: %v", path, lit.Value, err)
				}
				registered = append(registered, name)
			}
			return true
		})

		var documented []string
		if f.Doc != nil {
			for _, line := range strings.Split(f.Doc.Text(), "\n") {
				if !strings.HasPrefix(line, "\t") {
					continue
				}
				for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
					documented = append(documented, m[1])
				}
			}
		}

		slices.Sort(registered)
		slices.Sort(documented)
		documented = slices.Compact(documented)
		if !slices.Equal(registered, documented) {
			t.Errorf("%s: registers flags %v, usage block lists %v", path, registered, documented)
		}
	}
}
