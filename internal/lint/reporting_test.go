package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestStaleAllowAudit pins the staleness rule on the stalecheck fixture:
// a used directive is never stale, and an unused one — scoped or not — is
// reported, echoing its reason.
func TestStaleAllowAudit(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := LoadDir(testdataDir("stalecheck"), ".", fset)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("stalecheck must type-check: %v", pkg.TypeErrors)
	}
	diags, err := Run(everythingCritical(), fset, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want the two unused directives and nothing else, got %v", diags)
	}
	for i, reason := range []string{"nothing nondeterministic left", "blanket waiver"} {
		if !strings.Contains(diags[i].Message, "no longer suppresses") || !strings.Contains(diags[i].Message, reason) {
			t.Errorf("diagnostic %d: want a stale report echoing %q, got %s", i, reason, diags[i])
		}
	}
}
