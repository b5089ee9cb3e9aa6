package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// This file loads and type-checks packages without golang.org/x/tools:
// `go list -export -deps -json` resolves the import graph and compiles
// export data for every dependency (the go build cache makes repeat runs
// cheap), the target packages themselves are parsed from source with
// comments preserved, and go/types checks them against the dependency
// export data through importer.ForCompiler's lookup hook.

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("gostats/internal/engine").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test compiled Go files, with comments.
	Files []*ast.File
	// Types and Info are the go/types views. Info always has Types,
	// Defs, Uses, Selections, and Implicits populated.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking errors; analyzers still run
	// (with possibly incomplete Info) so statslint degrades rather than
	// hides behind a broken build.
	TypeErrors []error

	// summaries caches the interprocedural call graph and per-function
	// clock-taint summaries (callgraph.go), built lazily by detpath.
	summaries *summarySet
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// goList invokes `go list` in dir with the given arguments and decodes
// the concatenated JSON package objects.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup hook from listed packages:
// import path -> compiled export data.
func exportLookup(pkgs []*listedPackage) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// newInfo returns a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// LoadPackages loads, parses, and type-checks the packages matching
// patterns, resolved relative to dir (a directory inside the module).
// Standard-library and other dependency packages are consumed as export
// data only; the returned packages are the in-module matches, sorted by
// import path.
func LoadPackages(dir string, patterns []string, fset *token.FileSet) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One -deps walk compiles export data for the whole graph; the roots
	// are re-identified by a plain listing of the same patterns.
	all, err := goList(dir, append([]string{"-export", "-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	roots, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	lookup := exportLookup(all)
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, lp := range roots {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Info: newInfo()}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("package %s: %v", lp.ImportPath, err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		// Check returns the package even on soft errors; analyzers run on
		// what type-checked.
		pkg.Types, _ = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks the single package rooted at dir (used
// by the analysistest harness for testdata packages, which are invisible
// to go list). moduleDir is any directory inside this module, used to
// resolve the standard-library imports of the testdata files to export
// data. The package's import path is its directory base name.
func LoadDir(dir, moduleDir string, fset *token.FileSet) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: filepath.Base(dir), Dir: dir, Info: newInfo()}
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[path] = true
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var deps []string
	for path := range imports {
		deps = append(deps, path)
	}
	sort.Strings(deps)
	var listed []*listedPackage
	if len(deps) > 0 {
		listed, err = goList(moduleDir, append([]string{"-export", "-deps"}, deps...)...)
		if err != nil {
			return nil, err
		}
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(listed)),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	return pkg, nil
}
