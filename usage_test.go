package gostats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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

// registeredFlags lists the flags a command's main.go registers through
// package flag or a *flag.FlagSet named fs.
func registeredFlags(t *testing.T, path string, f *ast.File) []string {
	t.Helper()
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
	return registered
}

// commandMains parses every cmd/*/main.go, keyed by its path.
func commandMains(t *testing.T) map[string]*ast.File {
	t.Helper()
	paths, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	mains := make(map[string]*ast.File, len(paths))
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		mains[path] = f
	}
	return mains
}

// TestCommandUsageMatchesFlags: every command's package doc lists, in its
// indented usage block, exactly the flags its main.go registers — no
// flag the command lacks, none it has left out.
func TestCommandUsageMatchesFlags(t *testing.T) {
	for path, f := range commandMains(t) {
		registered := registeredFlags(t, path, f)
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

// shellFence opens a fenced shell block in README.md.
var shellFence = regexp.MustCompile("^```(sh|bash|shell|console)$")

// argFlag is a command-line argument that passes a flag: -name or
// --name, with or without =value.
var argFlag = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)

// TestReadmeCommandsUseRegisteredFlags: every command line in README.md's
// shell blocks passes only flags its command registers. A command line,
// with backslash-continued lines joined, is `go run ./cmd/<name> …` or
// starts with the binary <name> under any path; its arguments end at the
// first shell operator or comment. go test and go build lines name no
// command of this repo, so they are not command lines.
func TestReadmeCommandsUseRegisteredFlags(t *testing.T) {
	flags := map[string]map[string]bool{}
	for path, f := range commandMains(t) {
		set := map[string]bool{}
		for _, name := range registeredFlags(t, path, f) {
			set[name] = true
		}
		flags[filepath.Base(filepath.Dir(path))] = set
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	in, joined := false, ""
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case !in:
			in = shellFence.MatchString(line)
		case strings.HasPrefix(line, "```"):
			in, joined = false, ""
		default:
			if head, ok := strings.CutSuffix(line, `\`); ok {
				joined += head + " "
				continue
			}
			lines = append(lines, joined+line)
			joined = ""
		}
	}

	checked := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		var name string
		switch {
		case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && strings.HasPrefix(fields[2], "./cmd/"):
			name, fields = strings.TrimSuffix(strings.TrimPrefix(fields[2], "./cmd/"), "/"), fields[3:]
			if flags[name] == nil {
				t.Errorf("README.md: %q runs cmd/%s, which is no command", line, name)
				continue
			}
		case len(fields) >= 1 && flags[filepath.Base(fields[0])] != nil:
			name, fields = filepath.Base(fields[0]), fields[1:]
		default:
			continue
		}
		checked++
		for _, arg := range fields {
			if strings.ContainsAny(arg[:1], "|&;<>#") {
				break
			}
			if m := argFlag.FindStringSubmatch(arg); m != nil && !flags[name][m[1]] {
				t.Errorf("README.md: %q passes -%s, which cmd/%s does not register", line, m[1], name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md: no command line found in a shell block")
	}
}
