// Package lint holds the repo's invariant lint: five checks over the
// type-checked module, run by `go test ./internal/lint`. The golden
// outputs and the paper's tables are reproduced only because two runs of
// one seed are byte-identical, so the rules that keep them so are
// machine-checked rather than hand-audited:
//
//	walltime      no time.Now/Since/Sleep/... outside internal/sim,
//	              cmd/, and tests
//	rawgoroutine  no go statements outside tests
//	unseededrand  no global math/rand or crypto/rand outside internal/sim
//	maporder      no map iteration with order-sensitive effects unless
//	              keys are sorted first
//	errdrop       no discarded error returns (`_ =` or bare call)
//	              outside tests and cmd/ flag parsing
//
// A finding is silenced for one line by the comment
// //ppmlint:allow <check> <reason> on the line above. An allowance that
// silences nothing, or that names no check, is itself a finding.
//
// The package is test-only: TestInvariants loads every package of the
// module the way go vet does (load_test.go) and fails on any finding,
// and each check's fixture under testdata/src runs through the same
// loader (fixture_test.go).
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A pass is one type-checked package handed to the checks.
type pass struct {
	fset  *token.FileSet
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// A check reports the invariant violations it finds in one package.
type check struct {
	name string
	run  func(p *pass, report func(pos token.Pos, msg string))
}

// suite is every enforced invariant.
var suite = []check{
	{"walltime", walltime},
	{"rawgoroutine", rawgoroutine},
	{"unseededrand", unseededrand},
	{"maporder", maporder},
	{"errdrop", errdrop},
}

type finding struct {
	check string // the check that reported it; "" for an allowance naming no check
	pos   token.Pos
	msg   string
}

// lint runs checks over p and filters what they find through the
// package's //ppmlint:allow comments.
func lint(p *pass, checks []check) []finding {
	var found []finding
	for _, c := range checks {
		c.run(p, func(pos token.Pos, msg string) {
			found = append(found, finding{c.name, pos, msg})
		})
	}
	return suppress(p, found, checks)
}

const allowPrefix = "//ppmlint:allow "

// suppress applies the package's allowances to found. A comment
//
//	//ppmlint:allow <check> optional justification
//
// silences exactly one finding of the named check on the first code
// line after its comment group, so allowances for several findings can
// stack above one statement. An allowance for a check that ran and
// silenced nothing is reported, naming the line it covered, and so is
// one whose name is no check of the suite — a misspelling or a retired
// check would otherwise excuse nothing, silently. Allowances for checks
// of the suite that did not run are left alone.
func suppress(p *pass, found []finding, ran []check) []finding {
	type allowance struct {
		check string
		pos   token.Pos
		file  string
		line  int // the code line it covers
		used  bool
	}
	var (
		allows []allowance
		out    []finding
	)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			end := p.fset.Position(cg.End())
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				switch {
				case !named(suite, name):
					out = append(out, finding{pos: c.Pos(), msg: fmt.Sprintf(
						"//ppmlint:allow %s names no check (the checks are %s)", name, checkNames())})
				case named(ran, name):
					allows = append(allows, allowance{check: name, pos: c.Pos(), file: end.Filename, line: end.Line + 1})
				}
			}
		}
	}
	for _, d := range found {
		at := p.fset.Position(d.pos)
		suppressed := false
		for i := range allows {
			a := &allows[i]
			if !a.used && a.check == d.check && a.file == at.Filename && a.line == at.Line {
				a.used, suppressed = true, true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, a := range allows {
		if !a.used {
			out = append(out, finding{a.check, a.pos, fmt.Sprintf(
				"unused //ppmlint:allow %s suppression (no %s finding at %s:%d)",
				a.check, a.check, filepath.Base(a.file), a.line)})
		}
	}
	return out
}

func named(checks []check, name string) bool {
	for _, c := range checks {
		if c.name == name {
			return true
		}
	}
	return false
}

func checkNames() string {
	names := make([]string, len(suite))
	for i, c := range suite {
		names[i] = c.name
	}
	return strings.Join(names, ", ")
}

// repoRoot locates the module root, two levels up.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

// TestInvariants sweeps the module: every package with its in-package
// tests, and every external test package, each type-checked the way go
// vet sees it. It fails on each finding, naming file:line, and when a
// .go file of the module outside testdata/ escaped the sweep.
func TestInvariants(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	passes, err := typecheck(fset, importer.ForCompiler(fset, "source", nil), moduleUnits(t, root))
	if err != nil {
		t.Fatal(err)
	}
	type hit struct {
		at  token.Position
		msg string
	}
	var hits []hit
	swept := map[string]bool{}
	for _, p := range passes {
		for _, f := range p.files {
			swept[fset.Position(f.Pos()).Filename] = true
		}
		for _, f := range lint(p, suite) {
			hits = append(hits, hit{fset.Position(f.pos), f.msg})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		a, b := hits[i].at, hits[j].at
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, h := range hits {
		rel, _ := filepath.Rel(root, h.at.Filename)
		t.Errorf("%s:%d:%d: %s", rel, h.at.Line, h.at.Column, h.msg)
	}
	for _, path := range goFiles(t, root) {
		if !swept[path] {
			t.Errorf("%s is in no package the sweep type-checked", path)
		}
	}
}

// goFiles lists the module's .go files outside testdata/ and dot
// directories.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// hotpathDirective marks a function as a measured hot path.
const hotpathDirective = "//ppmlint:hotpath"

// TestHotpathPinsExist keeps each hot path's claim tied to its proof:
// every //ppmlint:hotpath annotation must carry pin=<TestName> naming a
// test, somewhere in the repo, that measures with testing.AllocsPerRun.
// An annotation whose pin test was renamed or deleted fails here, not
// silently.
func TestHotpathPinsExist(t *testing.T) {
	root := repoRoot(t)
	type pinSite struct {
		at  string // file:line of the directive
		pin string
	}
	var pins []pinSite
	allocTests := make(map[string]bool) // Test funcs calling AllocsPerRun
	for _, path := range goFiles(t, root) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, "_test.go") {
			collectAllocTests(f, allocTests)
			continue
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != hotpathDirective && !strings.HasPrefix(c.Text, hotpathDirective+" ") {
					continue
				}
				pin := ""
				for _, field := range strings.Fields(c.Text) {
					if name, ok := strings.CutPrefix(field, "pin="); ok {
						pin = name
					}
				}
				pins = append(pins, pinSite{fmt.Sprintf("%s:%d", rel, fset.Position(c.Pos()).Line), pin})
			}
		}
	}

	// The repo annotates the wire framing, sim scheduling, journal
	// append and status build paths — if the scan finds fewer sites
	// than that, the scan itself (or the annotations) rotted.
	if len(pins) < 8 {
		t.Fatalf("found only %d //ppmlint:hotpath annotations; expected the wire/sim/journal/status paths (8+)", len(pins))
	}
	for _, p := range pins {
		switch {
		case p.pin == "":
			t.Errorf("%s: hotpath annotation without pin=<TestName>", p.at)
		case !allocTests[p.pin]:
			t.Errorf("%s: pin %s does not name a test that calls testing.AllocsPerRun", p.at, p.pin)
		}
	}
}

// collectAllocTests records the file's Test functions whose bodies
// call AllocsPerRun.
func collectAllocTests(f *ast.File, out map[string]bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Test") {
			continue
		}
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "AllocsPerRun" {
				found = true
			}
			return !found
		})
		if found {
			out[fd.Name.Name] = true
		}
	}
}

// TestModuleRequiresNothing: the module has no dependencies and no
// vendor/ directory. The benchmark's build script, cmd/ppmload/run.sh,
// builds with GOFLAGS=-mod=vendor; without vendor/ that works only while
// go.mod requires nothing — a require line without vendor/ fails the
// build with "go: inconsistent vendoring".
func TestModuleRequiresNothing(t *testing.T) {
	root := repoRoot(t)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "require" {
			t.Errorf("go.mod:%d: %s — the module requires nothing", i+1, line)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "vendor")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("vendor/ exists (stat: %v); the module has no dependencies to vendor", err)
	}
}
