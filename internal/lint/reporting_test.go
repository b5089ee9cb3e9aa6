package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// TestSARIFOutput checks the emitted log is valid SARIF 2.1.0 with
// per-analyzer rules, root-relative URIs, and one result per
// diagnostic wired to the right rule index.
func TestSARIFOutput(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "detpath", File: "/repo/pkg/f.go", Line: 12, Col: 3, Message: "wall-clock read time.Now"},
		{Analyzer: "statslint", File: "/repo/pkg/g.go", Line: 4, Col: 1, Message: "stale //statslint:allow directive"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/repo", Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "statslint" {
		t.Fatalf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
	}
	for _, a := range Analyzers() {
		if _, ok := ruleIDs[a.Name]; !ok {
			t.Errorf("missing rule for analyzer %s", a.Name)
		}
	}
	if _, ok := ruleIDs["statslint"]; !ok {
		t.Error("missing statslint pseudo-rule for directive diagnostics")
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(diags))
	}
	for i, res := range run.Results {
		if res.RuleID != diags[i].Analyzer || ruleIDs[res.RuleID] != res.RuleIndex {
			t.Errorf("result %d: ruleId=%q ruleIndex=%d", i, res.RuleID, res.RuleIndex)
		}
		loc := res.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("result %d: URI %q is not root-relative", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine != diags[i].Line {
			t.Errorf("result %d: startLine=%d want %d", i, loc.Region.StartLine, diags[i].Line)
		}
	}
}

// TestStaleAllowAudit pins the staleness rules on the stalecheck
// fixture: a used directive is never stale, a scoped unused one is
// stale as soon as its analyzer ran, and an unscoped unused one is
// only assessable under the full suite.
func TestStaleAllowAudit(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := LoadDir(testdataDir("stalecheck"), ".", fset)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("stalecheck must type-check: %v", pkg.TypeErrors)
	}

	// Partial run: only detpath. The live suppression absorbs its
	// finding, the scoped-but-unused directive is stale, the unscoped
	// one is not assessable.
	res, err := RunAll(everythingCritical(), fset, []*Package{pkg}, []*Analyzer{Detpath})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("live suppression failed: %v", res.Diagnostics)
	}
	if len(res.Stale) != 1 || !strings.Contains(res.Stale[0].Message, "no longer suppresses") {
		t.Fatalf("partial run: want exactly the scoped stale directive, got %v", res.Stale)
	}
	if !strings.Contains(res.Stale[0].Message, "nothing nondeterministic left") {
		t.Fatalf("stale report must echo the directive's reason: %v", res.Stale[0])
	}

	// Full suite: the unscoped directive becomes assessable too.
	res, err = RunAll(everythingCritical(), fset, []*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stale) != 2 {
		t.Fatalf("full run: want 2 stale directives, got %v", res.Stale)
	}
}
