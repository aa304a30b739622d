// Package doclint cross-checks the repository documentation against the
// code. Docs rot silently: a flag renamed in cmd/ keeps its old spelling in
// README.md forever unless something fails. This test greps the top-level
// markdown files for documented flags and verifies each one is actually
// registered by some command under cmd/ (or is a well-known go-tool flag).
package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goToolFlags are flags the docs mention that belong to the go toolchain
// (`go test`, `go vet`), not to any binary under cmd/.
var goToolFlags = map[string]bool{
	"bench":     true,
	"benchmem":  true,
	"benchtime": true,
	"count":     true,
	"race":      true,
	"run":       true,
	"v":         true,
}

// docFlagRe matches a flag documented as its own backtick span: `-drops`,
// `--compare`, `-journal-kinds`. Flags quoted inside longer command lines
// (`go test -bench=.`) are deliberately not matched — this lint is about
// flags the prose presents as an interface, not about example invocations.
var docFlagRe = regexp.MustCompile("`--?([a-z][a-z0-9.-]*[a-z0-9])`")

// flagVarMethods maps flag-registration method names to the index of the
// argument holding the flag name.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// registeredFlags parses every non-test Go file under cmd/ and collects the
// flag names passed to flag.String / fs.StringVar / ... call sites.
func registeredFlags(t *testing.T, root string) map[string][]string {
	t.Helper()
	flags := make(map[string][]string) // name -> commands registering it
	cmdDir := filepath.Join(root, "cmd")
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		t.Fatalf("reading cmd/: %v", err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(cmdDir, e.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				idx, ok := flagNameArg[sel.Sel.Name]
				if !ok || len(call.Args) <= idx {
					return true
				}
				lit, ok := call.Args[idx].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil || name == "" {
					return true
				}
				flags[name] = append(flags[name], e.Name())
				return true
			})
		}
	}
	return flags
}

// documentedFlags scans the top-level markdown files for backtick-quoted
// flag spans and returns flag name -> "file:line" mentions.
func documentedFlags(t *testing.T, root string) map[string][]string {
	t.Helper()
	docs, err := filepath.Glob(filepath.Join(root, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	mentions := make(map[string][]string)
	for _, path := range docs {
		base := filepath.Base(path)
		// ISSUE.md and SNIPPETS.md quote external code and task text,
		// ROADMAP.md plans flags that do not exist yet (-explain), and
		// CHANGES.md is a history naming flags as they were when each PR
		// landed; none documents today's interface, so none is subject to
		// the lint.
		if base == "ISSUE.md" || base == "SNIPPETS.md" || base == "ROADMAP.md" || base == "CHANGES.md" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docFlagRe.FindAllStringSubmatch(line, -1) {
				where := base + ":" + strconv.Itoa(i+1)
				mentions[m[1]] = append(mentions[m[1]], where)
			}
		}
	}
	return mentions
}

// TestDocumentedFlagsAreRegistered is the doc lint: every flag the docs
// present as an interface must exist in some command under cmd/.
func TestDocumentedFlagsAreRegistered(t *testing.T) {
	root := repoRoot(t)
	registered := registeredFlags(t, root)
	if len(registered) == 0 {
		t.Fatal("found no flag registrations under cmd/ — parser broken?")
	}
	documented := documentedFlags(t, root)
	if len(documented) == 0 {
		t.Fatal("found no documented flags in *.md — regex broken?")
	}

	var stale []string
	for name, where := range documented {
		if goToolFlags[name] {
			continue
		}
		if _, ok := registered[name]; !ok {
			sort.Strings(where)
			stale = append(stale, name+" (documented at "+strings.Join(where, ", ")+")")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("documented flag -%s is not registered by any command in cmd/", s)
	}
}

// TestKnownFlagsStayRegistered pins the flags the documentation leans on
// most heavily, so a rename fails loudly here even if the prose mention
// slips past the regex (e.g. gets folded into a command-line example).
func TestKnownFlagsStayRegistered(t *testing.T) {
	root := repoRoot(t)
	registered := registeredFlags(t, root)
	for _, want := range []struct{ flag, cmd string }{
		{"drops", "ppmtrace"},
		{"flap", "ppmtrace"},
		{"status", "ppmtrace"},
		{"journal", "ppmtrace"},
		{"watch", "ppmtrace"},
		{"partition", "ppmtrace"},
		{"journal-kinds", "ppmtrace"},
		{"journal-host", "ppmtrace"},
		{"supervise", "ppmrun"},
		{"chaos", "ppmrun"},
		{"folded", "ppmtrace"},
		{"critical", "ppmtrace"},
		{"top", "ppmtrace"},
		{"attribution", "experiments"},
	} {
		cmds, ok := registered[want.flag]
		if !ok {
			t.Errorf("flag -%s (documented as part of %s) is no longer registered anywhere", want.flag, want.cmd)
			continue
		}
		found := false
		for _, c := range cmds {
			if c == want.cmd {
				found = true
			}
		}
		if !found {
			t.Errorf("flag -%s moved out of cmd/%s (now in %v); update the docs", want.flag, want.cmd, cmds)
		}
	}
}
