// Command statslint runs the statslint analyzer suite — the static
// enforcement of the STATS determinism and protocol contracts — over Go
// package patterns, go vet style:
//
//	go run ./cmd/statslint ./...
//	go run ./cmd/statslint -json ./... > findings.json
//	go run ./cmd/statslint -sarif findings.sarif ./...
//
// Exit status: 0 when the tree is clean, 1 when any diagnostic was
// reported, 2 on usage or load errors. The -json mode emits one
// machine-readable array of {analyzer, file, line, col, message}
// objects (sorted by position); -sarif writes the same findings as a
// SARIF 2.1.0 log for GitHub code scanning. -stale additionally reports
// //statslint:allow directives that no longer suppress anything.
//
// Intentional nondeterminism is waived in source with
// //statslint:allow [analyzer] <reason>; see internal/lint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"gostats/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	sarifPath := flag.String("sarif", "", "write findings as a SARIF 2.1.0 log to this file")
	stale := flag.Bool("stale", false, "also report //statslint:allow directives that no longer suppress anything")
	flag.Usage = usage
	flag.Parse()

	analyzers := lint.Analyzers()
	if *only != "" {
		wanted := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
		var subset []*lint.Analyzer
		for _, a := range analyzers {
			if wanted[a.Name] {
				subset = append(subset, a)
				delete(wanted, a.Name)
			}
		}
		if len(wanted) > 0 {
			var valid []string
			for _, a := range lint.Analyzers() {
				valid = append(valid, a.Name)
			}
			fmt.Fprintf(os.Stderr, "statslint: unknown analyzers in -analyzers: %s\nstatslint: valid analyzers are: %s\n",
				strings.Join(keys(wanted), ", "), strings.Join(valid, ", "))
			return 2
		}
		analyzers = subset
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
		return 2
	}
	fset := token.NewFileSet()
	pkgs, err := lint.LoadPackages(cwd, patterns, fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
		return 2
	}
	res, err := lint.RunAll(lint.DefaultConfig(), fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
		return 2
	}
	diags := res.Diagnostics
	if *stale {
		diags = append(diags, res.Stale...)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
			return 2
		}
		werr := lint.WriteSARIF(f, cwd, analyzers, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "statslint: writing SARIF: %v\n", werr)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "statslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: statslint [-json] [-sarif file] [-stale] [-analyzers a,b] [packages...]\n\nAnalyzers:\n")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
	}
	flag.PrintDefaults()
}

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
