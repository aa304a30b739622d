package ppm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ppm"
)

// publicSurface lists package ppm's exported top-level identifiers and
// the exported methods of its exported types — read from the non-test
// source files, so it is what `go doc ppm` shows a library user — and
// every value settable through ClusterConfig, one per line, sorted.
func publicSurface(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["ppm"]
	if !ok {
		t.Fatalf("no package ppm in the repository root (found %d packages)", len(pkgs))
	}
	var lines []string
	add := func(kind, name string) {
		if ast.IsExported(name) {
			lines = append(lines, kind+" "+name)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && ast.IsExported(id.Name) {
					add("method "+id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	lines = append(lines, settable("ClusterConfig", reflect.TypeOf(ppm.ClusterConfig{}))...)
	sort.Strings(lines)
	return lines
}

// settable lists the values a caller can set through a configuration
// struct, one "field <path>" line per leaf: structs are recursed into;
// scalars, slices, maps and interfaces are leaves.
func settable(path string, t reflect.Type) []string {
	if t.Kind() != reflect.Struct {
		return []string{"field " + path}
	}
	var lines []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			lines = append(lines, settable(path+"."+f.Name, f.Type)...)
		}
	}
	return lines
}

// TestPublicSurface holds package ppm's exported surface and its
// configuration surface to testdata/api.golden: the library's front
// page (ROADMAP tracks its size) changes only together with an edited
// golden file, where a reviewer sees exactly which names and knobs came
// or went.
func TestPublicSurface(t *testing.T) {
	raw, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[l] = true
	}
	got := publicSurface(t)
	for _, l := range got {
		if !want[l] {
			t.Errorf("part of the surface but not in testdata/api.golden: %s", l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("in testdata/api.golden but no longer part of the surface: %s", l)
	}
	if t.Failed() {
		t.Logf("the exported surface is now:\n%s", strings.Join(got, "\n"))
	}
}
