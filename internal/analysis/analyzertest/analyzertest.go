// Package analyzertest is a small analysistest-style harness for the
// ppmlint analyzers. The upstream analysistest depends on go/packages
// and an external `go list` driver; this harness instead loads a
// testdata package directly with go/parser and go/types, using the
// source importer for stdlib dependencies, so analyzer tests run
// hermetically inside `go test`.
//
// A testdata package lives at testdata/src/<importPath> relative to
// the test. Expected diagnostics are declared in the source under test
// with trailing comments of the form
//
//	code() // want "regexp"
//
// where the quoted Go string is a regular expression that must match a
// diagnostic message reported on that line. A comment may carry
// several expectations: // want "a" "b". Every reported diagnostic
// must be expected and every expectation must be matched.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads testdata/src/<importPath>, applies a, and compares the
// diagnostics against the package's // want comments. deps are import
// paths of other testdata packages the target imports; they are loaded
// first, in order: typechecked but not analyzed, so they contribute no
// expectations. No fact callbacks are wired: no analyzer in the suite
// uses facts.
func Run(t *testing.T, a *analysis.Analyzer, importPath string, deps ...string) {
	t.Helper()
	fset := token.NewFileSet()
	loaded := make(map[string]*types.Package)
	imp := &testImporter{
		local:  loaded,
		source: importer.ForCompiler(fset, "source", nil),
	}
	for _, dep := range deps {
		pkg, _, err := load(fset, imp, dep)
		if err != nil {
			t.Fatalf("loading dep %s: %v", dep, err)
		}
		loaded[dep] = pkg
	}
	pkg, u, err := load(fset, imp, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", importPath, err)
	}
	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      u.files,
		Pkg:        pkg,
		TypesInfo:  u.info,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		ResultOf:   make(map[*analysis.Analyzer]interface{}),
		Report:     func(d analysis.Diagnostic) { got = append(got, d) },
		ReadFile:   os.ReadFile,
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, pkg.Path(), err)
	}

	wants := expectations(t, fset, u.files)
	for _, d := range got {
		p := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q, got none", w.at, w.re)
			}
		}
	}
}

type unit struct {
	files []*ast.File
	info  *types.Info
}

// load parses and typechecks testdata/src/<importPath>.
func load(fset *token.FileSet, imp types.Importer, importPath string) (*types.Package, *unit, error) {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, &unit{files: files, info: info}, nil
}

// testImporter resolves sibling testdata packages before falling back
// to the stdlib source importer.
type testImporter struct {
	local  map[string]*types.Package
	source types.Importer
}

func (i *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.local[path]; ok {
		return pkg, nil
	}
	return i.source.Import(path)
}

type want struct {
	at   token.Position
	re   *regexp.Regexp
	used bool
}

// wantRE pulls the quoted expectations out of a // want comment; each
// argument is a double-quoted or backquoted Go string.
var wantRE = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var wantArgRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectations collects // want comments keyed by "file:line".
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, q := range wantArgRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", p, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p, s, err)
					}
					out[key] = append(out[key], &want{at: p, re: re})
				}
			}
		}
	}
	return out
}
