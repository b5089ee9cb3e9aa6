package lint

import (
	"go/token"
	"path/filepath"
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

func TestAtomicProt(t *testing.T) {
	RunAnalyzerTest(t, testdataDir("atomicprot"), nil)
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
// annotated, and every annotation still earns its keep. A regression
// here means new code introduced a nondeterminism source or an atomic
// protocol break, or a fix left its waiver behind.
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
}
