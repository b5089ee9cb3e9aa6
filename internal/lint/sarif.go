package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output, the static-analysis interchange format GitHub
// code scanning ingests. Only the slice of the schema statslint needs
// is modeled: one run, one tool driver, a rule per analyzer (plus the
// "statslint" pseudo-rule that carries malformed- and stale-directive
// diagnostics), and one result per diagnostic with a physical location.
// URIs are emitted root-relative so the report is stable across
// checkouts and matches what code scanning expects.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	FullDescription  sarifMessage `json:"fullDescription,omitempty"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// firstSentence trims an analyzer Doc to its headline for the rule's
// short description.
func firstSentence(doc string) string {
	for i := 0; i < len(doc); i++ {
		if doc[i] == '.' || doc[i] == '\n' {
			return doc[:i]
		}
	}
	return doc
}

// WriteSARIF emits diags as a SARIF 2.1.0 log. root relativizes file
// URIs; analyzers supply the rule metadata. Diagnostics attributed to
// the suite itself (malformed or stale allow directives, analyzer name
// "statslint") map to a synthetic rule appended after the analyzers.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	ruleIndex := map[string]int{}
	var rules []sarifRule
	for _, a := range analyzers {
		ruleIndex[a.Name] = len(rules)
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: firstSentence(a.Doc)},
			FullDescription:  sarifMessage{Text: a.Doc},
		})
	}
	addRule := func(name, doc string) {
		if _, ok := ruleIndex[name]; ok {
			return
		}
		ruleIndex[name] = len(rules)
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: doc}})
	}
	addRule("statslint", "suite-level diagnostics: malformed or stale //statslint:allow directives")
	for _, d := range diags {
		addRule(d.Analyzer, "statslint analyzer "+d.Analyzer)
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ruleIndex[d.Analyzer],
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(root, d.File)},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "statslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath makes file root-relative with forward slashes, falling back
// to the input when it is not under root.
func relPath(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
