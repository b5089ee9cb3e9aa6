// Command statslint runs the statslint analyzers — detpath and atomicprot,
// see internal/lint — over Go package patterns, go vet style:
//
//	go run ./cmd/statslint ./...
//
// It takes no flags. Every finding is printed as file:line:col: message
// (analyzer), and so is every allow directive that no longer suppresses
// anything. Exit status: 0 when the tree is clean, 1 when
// anything was reported, 2 on a flag or a load error.
//
// Intentional nondeterminism is waived in source with
// //statslint:allow [analyzer] <reason>; see internal/lint.
package main

import (
	"fmt"
	"go/token"
	"os"
	"strings"

	"gostats/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(patterns []string) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "statslint: %s: statslint takes no flags, only package patterns\n", p)
			return 2
		}
	}
	fset := token.NewFileSet()
	pkgs, err := lint.LoadPackages(".", patterns, fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(lint.DefaultConfig(), fset, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "statslint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "statslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
