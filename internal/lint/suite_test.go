package lint

import (
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func testdataDir(name string) string {
	return filepath.Join("testdata", "src", name)
}

// everythingCritical scopes detpath to the testdata package, whose
// import path (its bare directory name) is outside DefaultConfig's
// prefixes.
func everythingCritical() *Config {
	return &Config{CriticalPrefixes: []string{""}}
}

func TestDetpath(t *testing.T) {
	RunAnalyzerTest(t, testdataDir("detpath"), everythingCritical())
}

// TestAtomicProt runs atomicprot over its fixture, then go vet's
// copylocks pass, which owns the copied-atomic shapes: every line
// marked `// vet: msg` must draw exactly one vet report containing msg,
// and no other line any.
func TestAtomicProt(t *testing.T) {
	dir := testdataDir("atomicprot")
	RunAnalyzerTest(t, dir, nil)

	file := filepath.Join(dir, "atomicprot.go")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // "file:line" -> message
	for i, line := range strings.Split(string(src), "\n") {
		if _, msg, ok := strings.Cut(line, "// vet: "); ok {
			want[file+":"+strconv.Itoa(i+1)] = msg
		}
	}
	if len(want) != 3 {
		t.Fatalf("fixture has %d vet markers, want 3", len(want))
	}
	got := vetCopylocks(t, "./"+dir)
	for pos, msgs := range got {
		if msg, ok := want[pos]; !ok || len(msgs) != 1 || !strings.Contains(msgs[0], msg) {
			t.Errorf("%s: vet reported %q, want one report containing %q", pos, msgs, want[pos])
		}
	}
	for pos, msg := range want {
		if got[pos] == nil {
			t.Errorf("%s: vet reported nothing, want %q", pos, msg)
		}
	}
}

// vetReport matches one go vet finding line: path:line:col: message.
var vetReport = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*)$`)

// vetCopylocks runs `go vet -copylocks` over pattern and returns its
// reports keyed by "file:line", the file as vet prints it (relative to
// this package's directory).
func vetCopylocks(t *testing.T, pattern string) map[string][]string {
	t.Helper()
	out, err := exec.Command("go", "vet", "-copylocks", pattern).CombinedOutput()
	got := map[string][]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if m := vetReport.FindStringSubmatch(line); m != nil {
			got[m[1]+":"+m[2]] = append(got[m[1]+":"+m[2]], m[3])
		}
	}
	if err != nil && len(got) == 0 {
		t.Fatalf("go vet -copylocks %s: %v\n%s", pattern, err, out)
	}
	return got
}

// TestDetpathInterprocedural pins the summary-driven checks the old
// intra-procedural suite missed: helpers that return wall-clock-derived
// values are tracked to their call sites.
func TestDetpathInterprocedural(t *testing.T) {
	RunAnalyzerTest(t, testdataDir("detpathinter"), everythingCritical())
}

// TestDetpathScope pins down the package scoping: the same testdata
// package under DefaultConfig (whose prefixes do not cover it) must
// produce no detpath diagnostics at all — including the ones the want
// markers announce, so the harness cannot be used here. Its allows
// then suppress nothing and are reported stale, which is all Run says.
func TestDetpathScope(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := LoadDir(testdataDir("detpath"), ".", fset)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(DefaultConfig(), fset, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == Detpath.Name {
			t.Errorf("detpath fired outside its critical-prefix scope: %s", d)
		}
	}
}

// TestSuiteCleanOnRepo runs the suite over the module exactly the way
// cmd/statslint and CI do, and requires zero findings, stale allows
// included: every true positive has been fixed, every intentional site
// annotated, and every annotation still earns its keep. It then runs go
// vet's copylocks pass over the module, the owner of atomics on copied
// structs, and requires no report. A regression here means new code
// introduced a nondeterminism source or an atomic protocol break, or a
// fix left its waiver behind.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list over the whole module")
	}
	fset := token.NewFileSet()
	pkgs, err := LoadPackages(".", []string{"gostats/..."}, fset)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := Run(nil, fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not statslint-clean: %s", d)
	}
	for pos, msgs := range vetCopylocks(t, "gostats/...") {
		t.Errorf("repo not copylocks-clean: %s: %s", pos, strings.Join(msgs, "; "))
	}
}
