package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A unit is one package as the type checker sees it.
type unit struct {
	id      string            // unique among the units; go list's ID for module packages
	path    string            // the path the package is checked as
	files   []string          // absolute paths
	imports map[string]string // import path → unit id, where the two differ
	lint    bool              // handed to the checks, not only imported
}

// moduleUnits lists the module the way go vet sees it, in dependency
// order, from `go list -deps -test ppm/...`. Each package with in-package
// tests is checked with those _test.go files ("P [P.test]"), each
// external test package against that variant ("P_test [P.test]"), and
// each module package that depends on the variant is re-checked against
// it ("Q [P.test]") — without that re-check, an external test that
// imports both P and Q sees two different P types. The variants go vet
// lints are marked lint; the rest are only imported.
func moduleUnits(t *testing.T, root string) []unit {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,ImportMap,ForTest,Standard,Error", "ppm/...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, ForTest string
		GoFiles                  []string
		ImportMap                map[string]string
		Standard                 bool
		Error                    *struct{ Err string }
	}
	var all []listed
	ids := map[string]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		all = append(all, p)
		ids[p.ImportPath] = true
	}
	var units []unit
	for _, p := range all {
		// The standard library comes from the source importer; "P.test"
		// is the generated test main.
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") || len(p.GoFiles) == 0 {
			continue
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		u := unit{id: p.ImportPath, path: path, imports: p.ImportMap}
		if p.ForTest == "" {
			u.lint = !ids[path+" ["+path+".test]"]
		} else {
			u.lint = path == p.ForTest || path == p.ForTest+"_test"
		}
		for _, f := range p.GoFiles {
			u.files = append(u.files, filepath.Join(p.Dir, f))
		}
		units = append(units, u)
	}
	return units
}

// fixtureUnits loads testdata/src/<path> for each path, deps first and
// the fixture under test last. A fixture's files are all checked as one
// package, _test.go files included.
func fixtureUnits(t *testing.T, paths ...string) []unit {
	t.Helper()
	units := make([]unit, len(paths))
	for i, path := range paths {
		files, err := filepath.Glob(filepath.Join("testdata", "src", filepath.FromSlash(path), "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("fixture %s has no Go files (%v)", path, err)
		}
		units[i] = unit{id: path, path: path, files: files, lint: i == len(paths)-1}
	}
	return units
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typecheck parses and type-checks units in order, each importing
// earlier units by id and the standard library from std, and returns a
// pass for every unit marked lint. std is a source importer over fset:
// importer.ForCompiler(fset, "source", nil).
func typecheck(fset *token.FileSet, std types.Importer, units []unit) ([]*pass, error) {
	checked := map[string]*types.Package{}
	var passes []*pass
	for _, u := range units {
		files := make([]*ast.File, len(u.files))
		for i, name := range u.files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files[i] = f
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			id := path
			if mapped, ok := u.imports[path]; ok {
				id = mapped
			}
			if pkg, ok := checked[id]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})}
		pkg, err := conf.Check(u.path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", u.id, err)
		}
		checked[u.id] = pkg
		if u.lint {
			passes = append(passes, &pass{fset: fset, pkg: pkg, files: files, info: info})
		}
	}
	return passes, nil
}
