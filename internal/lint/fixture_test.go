package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixture runs the named checks (comma-separated) over the package
// testdata/src/<path> named last in paths, with the ones before it
// loaded first as its imports, through the module sweep's loader and
// suppression pass. The findings must match the fixture's
// expectations, written as trailing comments
//
//	code() // want "regexp" `regexp`
//
// one quoted Go string per finding expected on that line: every finding
// must be expected and every expectation met.
func fixture(t *testing.T, names string, paths ...string) {
	t.Helper()
	var checks []check
	for _, name := range strings.Split(names, ",") {
		i := 0
		for i < len(suite) && suite[i].name != name {
			i++
		}
		if i == len(suite) {
			t.Fatalf("no check named %q", name)
		}
		checks = append(checks, suite[i])
	}
	passes, err := typecheck(fixtureFset, fixtureStd, fixtureUnits(t, paths...))
	if err != nil {
		t.Fatal(err)
	}
	p := passes[0]
	wants := expectations(t, p)
	for _, f := range lint(p, checks) {
		at := fixtureFset.Position(f.pos)
		matched := false
		for _, w := range wants {
			if !w.used && w.at.Filename == at.Filename && w.at.Line == at.Line && w.re.MatchString(f.msg) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", at, f.msg)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: expected a finding matching %q, got none", w.at, w.re)
		}
	}
}

// The fixtures share one file set and one standard-library importer,
// so the library is type-checked from source once, not per fixture.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

type want struct {
	at   token.Position
	re   *regexp.Regexp
	used bool
}

var (
	// wantRE pulls the quoted expectations out of a // want comment;
	// each is a double-quoted or backquoted Go string.
	wantRE    = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
	wantArgRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// expectations collects the // want comments of p's files.
func expectations(t *testing.T, p *pass) []*want {
	t.Helper()
	var out []*want
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				at := p.fset.Position(c.Pos())
				for _, q := range wantArgRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", at, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", at, s, err)
					}
					out = append(out, &want{at: at, re: re})
				}
			}
		}
	}
	return out
}

func TestFlagsClockReads(t *testing.T) { fixture(t, "walltime", "a") }

// TestWalltimeAllowsSimPackage and TestUnseededrandAllowsSimPackage:
// internal/sim owns virtual time and the seeded source, so it may read
// the clock and the global math/rand.
func TestWalltimeAllowsSimPackage(t *testing.T) { fixture(t, "walltime", "ppm/internal/sim") }

func TestUnseededrandAllowsSimPackage(t *testing.T) {
	fixture(t, "unseededrand", "ppm/internal/sim")
}

// TestAllowsCommands: the CLIs may time their own execution.
func TestAllowsCommands(t *testing.T) { fixture(t, "walltime", "ppm/cmd/fakecli") }

func TestFlagsGoStatements(t *testing.T) { fixture(t, "rawgoroutine", "b") }

func TestFlagsUnseededSources(t *testing.T) { fixture(t, "unseededrand", "c") }

func TestMapOrder(t *testing.T) {
	fixture(t, "maporder", "ppm/internal/detord", "ppm/internal/metrics", "m")
}

// TestErrdrop: bare calls, blank assignments and deferred drops
// report; exempt callees, bool drops, test files and a suppressed call
// do not; an allowance naming no check is itself a finding.
func TestErrdrop(t *testing.T) { fixture(t, "errdrop", "e") }

// TestErrdropCmd: inside a cmd/ package the flag-parsing drops are
// exempt while ordinary drops still report.
func TestErrdropCmd(t *testing.T) { fixture(t, "errdrop", "cmd/tool") }

const suppressSrc = `package p

func f() {
	//ppmlint:allow walltime stale excuse
	clean()
}

func clean() {}
`

// suppressPass parses suppressSrc as the one file of a pass.
func suppressPass(t *testing.T) *pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &pass{fset: fset, files: []*ast.File{f}}
}

// TestUnusedAllowanceNamesCoveredLine: the unused-suppression report
// says which file:line the allowance covered, not just the check name —
// that line is where the excused code was.
func TestUnusedAllowanceNamesCoveredLine(t *testing.T) {
	got := suppress(suppressPass(t), nil, suite)
	want := "unused //ppmlint:allow walltime suppression (no walltime finding at demo.go:5)"
	if len(got) != 1 || got[0].msg != want {
		t.Fatalf("got %+v, want the one report %q", got, want)
	}
}

// TestSuppressionConsumesExactlyOne: one allowance silences one finding
// of its check on the covered line; a second finding on the same line
// still surfaces, and the consumed allowance is not reported unused.
func TestSuppressionConsumesExactlyOne(t *testing.T) {
	p := suppressPass(t)
	at := p.fset.File(p.files[0].Pos()).LineStart(5)
	got := suppress(p, []finding{
		{"walltime", at, "first finding"},
		{"walltime", at, "second finding"},
	}, suite)
	if len(got) != 1 || got[0].msg != "second finding" {
		t.Fatalf("got %+v, want exactly the unsuppressed second finding", got)
	}
}
