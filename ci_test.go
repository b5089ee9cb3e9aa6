package gostats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gostats/internal/lint"
)

// goTestValueFlags are the go test flags the workflow passes a value to,
// which may come as the next argument; any other flag is a boolean.
var goTestValueFlags = []string{"run", "fuzz", "bench", "count", "fuzztime", "fuzzminimizetime", "benchtime", "shuffle"}

// goTestCommand is one `go test` invocation of the workflow: its selection
// patterns by flag and the package directories it names.
type goTestCommand struct {
	line     int
	patterns map[string]string // "run", "fuzz", "bench" → the pattern
	dirs     []string
}

// shellFields splits a command line on blanks, keeping a single-quoted
// run, quotes dropped, as one field.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	quoted, open := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, open = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if open {
				out = append(out, cur.String())
				cur.Reset()
				open = false
			}
		default:
			cur.WriteRune(r)
			open = true
		}
	}
	if open {
		out = append(out, cur.String())
	}
	return out
}

// goTestCommands extracts every `go test` command from the workflow, each
// `&&` segment on its own and after any `cd` that precedes it.
func goTestCommands(t *testing.T, workflow string) []goTestCommand {
	t.Helper()
	var cmds []goTestCommand
	for n, line := range strings.Split(workflow, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			continue
		}
		dir := "."
		for _, seg := range strings.Split(strings.TrimPrefix(line, "run:"), "&&") {
			args := shellFields(seg)
			if len(args) == 2 && args[0] == "cd" {
				dir = args[1]
				continue
			}
			i := slices.Index(args, "go")
			if i < 0 || i+1 >= len(args) || args[i+1] != "test" {
				continue
			}
			cmd := goTestCommand{line: n + 1, patterns: map[string]string{}}
			for rest := args[i+2:]; len(rest) > 0; rest = rest[1:] {
				arg := rest[0]
				if !strings.HasPrefix(arg, "-") {
					cmd.dirs = append(cmd.dirs, packageDirs(t, filepath.Join(dir, arg))...)
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if !hasValue && slices.Contains(goTestValueFlags, name) && len(rest) > 1 {
					value, rest = rest[1], rest[1:]
				}
				if name == "run" || name == "fuzz" || name == "bench" {
					cmd.patterns[name] = value
				}
			}
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// packageDirs expands a package argument — a directory or a dir/...
// pattern — into the directories holding test files, leaving out nested
// modules and testdata the way the go command does.
func packageDirs(t *testing.T, arg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(arg, "...")
	if !recursive {
		return []string{filepath.Clean(arg)}
	}
	root = filepath.Clean(root)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if tests, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(tests) > 0 {
			dirs = append(dirs, filepath.Clean(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs lists the Test, Fuzz and Benchmark functions declared in dir's
// test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// alternatives splits a pattern's top level — the part before any
// unbracketed slash, which selects subtests — at its unbracketed bars.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/', '|':
			if depth > 0 {
				continue
			}
			alts = append(alts, pattern[start:i])
			if r == '/' {
				return alts
			}
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// TestCIRunPatternsMatchTests: every alternative of every -run and -fuzz
// pattern in the CI workflow matches a Test, Fuzz or Benchmark function
// declared in the packages its go test command names. A pattern that
// matches nothing passes silently, so a test renamed, moved or deleted
// would quietly leave the step meant to run it. A -run beside -fuzz or
// -bench deselects tests on purpose and is not checked. Every fuzz target
// in the module must be fuzzed by some step.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	fuzzed := map[string]bool{}
	for _, cmd := range goTestCommands(t, string(raw)) {
		funcs := map[string][]string{}
		for _, dir := range cmd.dirs {
			funcs[dir] = testFuncs(t, dir)
		}
		for _, flag := range []string{"run", "fuzz"} {
			pattern, ok := cmd.patterns[flag]
			if !ok || flag == "run" && (cmd.patterns["fuzz"] != "" || cmd.patterns["bench"] != "") {
				continue
			}
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q: %v", cmd.line, flag, alt, err)
					continue
				}
				matched := false
				for dir, names := range funcs {
					for _, name := range names {
						if re.MatchString(name) {
							matched = true
							if flag == "fuzz" {
								fuzzed[dir+"."+name] = true
							}
						}
					}
				}
				if !matched {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no test in %v", cmd.line, flag, alt, cmd.dirs)
				}
				checked++
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked %d pattern alternatives: the workflow parse is broken", checked)
	}
	for _, dir := range packageDirs(t, "./...") {
		for _, name := range testFuncs(t, dir) {
			if strings.HasPrefix(name, "Fuzz") && !fuzzed[dir+"."+name] {
				t.Errorf("%s.%s is fuzzed by no CI step", dir, name)
			}
		}
	}
}

// TestCIFusedStepCoversCriticalPackages: the workflow's fused
// multiply-add check cross-compiles exactly the determinism-critical
// packages statslint knows (lint.DefaultConfig().CriticalPrefixes), so a
// package added to that list is checked for fused products too.
func TestCIFusedStepCoversCriticalPackages(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), `pkgs="`); ok {
			listed = strings.Fields(strings.TrimSuffix(rest, `"`))
		}
	}
	var want []string
	for _, p := range lint.DefaultConfig().CriticalPrefixes {
		want = append(want, "./"+strings.TrimPrefix(p, "gostats/")+"/...")
	}
	slices.Sort(listed)
	slices.Sort(want)
	if !slices.Equal(listed, want) {
		t.Errorf("the fused multiply-add step builds %v, the critical packages are %v", listed, want)
	}
}
