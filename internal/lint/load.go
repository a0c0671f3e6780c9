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
	"slices"
	"sort"
	"strings"
)

// Package is one type-checked target package: its syntax, its type
// information, and enough metadata to render diagnostics.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Fset       *token.FileSet
	Types      *types.Package
	Info       *types.Info

	// TypeErrors holds type-checking problems that did not stop the
	// load. Analyzers tolerate partial Info; callers decide whether
	// the errors are fatal (cmd/fdwlint treats them as load failures,
	// since a tree that does not compile is vetted by go build).
	TypeErrors []error

	// module is the main module the package belongs to, shared by
	// every package of one Load (nil for packages outside it).
	module *module
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
	Module     *struct {
		Path string
		Main bool
	}
}

// Loader turns package patterns into type-checked Packages without any
// dependency beyond the go command and the standard library. It shells
// out to `go list -deps -export -json`, which yields (a) the source
// files of every matched package and (b) compiled export data for each
// dependency; targets are then parsed and checked with go/types, with
// imports satisfied from the export data via go/importer's gc reader.
// This is the go/packages loading model re-implemented on stdlib only.
type Loader struct {
	// Dir is the directory to run the go command in ("" = cwd).
	Dir string
}

// Load lists, parses, and type-checks the packages matched by patterns,
// returned sorted by import path. Test files are not loaded: tests are
// an allowed context for every analyzer (see DESIGN.md §9).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, check, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	mods := map[string]*module{}
	for _, t := range targets {
		pkg, err := check(t)
		if err != nil {
			return nil, err
		}
		// "<module>/..." never matches a package under testdata, so
		// such a package (a lint fixture) is no part of the module.
		if t.Module != nil && t.Module.Main && !slices.Contains(strings.Split(t.ImportPath, "/"), "testdata") {
			m := mods[t.Module.Path]
			if m == nil {
				m = &module{loader: l, path: t.Module.Path, loaded: map[string]*Package{}}
				mods[t.Module.Path] = m
			}
			m.loaded[pkg.ImportPath] = pkg
			pkg.module = m
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// list runs `go list` over patterns and returns the matched packages,
// sorted by import path, with a function that type-checks one of them.
func (l *Loader) list(patterns []string) ([]*listedPackage, func(*listedPackage) (*Package, error), error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,Export,Name,DepOnly,Error,Module", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		q := p
		targets = append(targets, &q)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	return targets, func(t *listedPackage) (*Package, error) { return checkPackage(fset, imp, t) }, nil
}

// module is the main module as module-wide analyzers see it: every
// non-test package matched by "<path>/...". A narrower Load holds only
// some of them, so packages lists the rest and checks them, reusing the
// ones the Load already checked.
type module struct {
	loader *Loader
	path   string
	loaded map[string]*Package
}

// packages returns every package of the module, sorted by import path.
func (m *module) packages() ([]*Package, error) {
	listed, check, err := m.loader.list([]string{m.path + "/..."})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, t := range listed {
		pkg := m.loaded[t.ImportPath]
		if pkg == nil {
			if pkg, err = check(t); err != nil {
				return nil, err
			}
			if len(pkg.TypeErrors) > 0 {
				return nil, fmt.Errorf("lint: %s: %v", pkg.ImportPath, pkg.TypeErrors[0])
			}
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg := &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Files:      files,
		Fset:       fset,
		Info:       info,
	}
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check fills pkg.Types and info even when it reports errors; the
	// collected TypeErrors carry the details.
	pkg.Types, _ = conf.Check(t.ImportPath, fset, files, info)
	return pkg, nil
}
