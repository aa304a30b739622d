package doclint

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// trackedLines counts what ROADMAP tracks as the size of the system:
// the lines of every non-test .go file outside testdata/ and
// cmd/ppmload/ — the same set as
//
//	find . -name '*.go' -not -path '*/testdata/*' \
//	  -not -path './cmd/ppmload/*' -not -name '*_test.go' | xargs cat | wc -l
func trackedLines(t *testing.T, root string) int {
	t.Helper()
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "cmd/ppmload" || d.Name() == "testdata" ||
				(strings.HasPrefix(d.Name(), ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(data, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// budget reads the `<name> budget: N` line of DESIGN.md.
func budget(t *testing.T, doc []byte, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^ *` + name + ` budget: (\d+)$`).FindSubmatch(doc)
	if m == nil {
		t.Fatalf("DESIGN.md has no `%s budget: N` line", name)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTrackedLinesStayInsideBudget is the ratchet for ROADMAP's tracked
// number: the count may not exceed the `tracked lines budget: N` line
// of DESIGN.md, so growing the system past it is a decision visible in
// a diff (the same pattern as `control/allocs_per_op budget` in
// PERFORMANCE.md). A PR that shrinks the count lowers N with it.
func TestTrackedLinesStayInsideBudget(t *testing.T) {
	root := repoRoot(t)
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := trackedLines(t, root), budget(t, doc, "tracked lines"); got > limit {
		t.Errorf("%d tracked non-test lines, budget is %d (DESIGN.md): shrink, or raise the budget in the same diff", got, limit)
	}
}

// TestDesignStaysInsideBudget holds DESIGN.md itself to its `design
// bytes budget: N` line, the same ratchet for the prose: a rule that
// restates the code grows the document past it.
func TestDesignStaysInsideBudget(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if limit := budget(t, doc, "design bytes"); len(doc) > limit {
		t.Errorf("DESIGN.md is %d bytes, budget is %d (its own `design bytes budget` line): shrink, or raise the budget in the same diff", len(doc), limit)
	}
}

var (
	// mapLineRe matches one directory entry of the module map: four
	// spaces, the directory name with its trailing slash, then the
	// description.
	mapLineRe = regexp.MustCompile(`^    ([a-z0-9]+)/\s`)
	// rootFileRe matches a root-package file the map names.
	rootFileRe = regexp.MustCompile(`\b[a-z_]+\.go\b`)
	// benchDeclRe matches a benchmark declaration in a _test.go file.
	benchDeclRe = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
)

// TestModuleMapMatchesTree pins DESIGN.md's module map to the directory
// tree: every directory directly under cmd/, internal/ and examples/
// that holds a .go file appears in the map exactly once, and every
// directory and root file the map names exists.
func TestModuleMapMatchesTree(t *testing.T) {
	root := repoRoot(t)
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "(module map)\n")
	if !ok {
		t.Fatal("DESIGN.md has no module-map section")
	}
	_, block, ok := strings.Cut(rest, "```\n")
	if !ok {
		t.Fatal("the module-map section has no code block")
	}
	block, _, _ = strings.Cut(block, "```")

	listed := map[string]int{} // "internal/lpm" -> times listed
	top := ""
	for _, line := range strings.Split(block, "\n") {
		switch {
		case line == "  cmd/" || line == "  internal/" || line == "  examples/":
			top = strings.TrimSpace(strings.TrimSuffix(line, "/"))
		case top == "":
			// Above the first directory: the root package's files.
			for _, f := range rootFileRe.FindAllString(line, -1) {
				if _, err := os.Stat(filepath.Join(root, f)); err != nil {
					t.Errorf("the module map names root file %s, which does not exist", f)
				}
			}
		default:
			if m := mapLineRe.FindStringSubmatch(line); m != nil {
				listed[top+"/"+m[1]]++
			}
		}
	}

	for _, top := range []string{"cmd", "internal", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, top))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			gofiles, _ := filepath.Glob(filepath.Join(root, top, e.Name(), "*.go"))
			if !e.IsDir() || len(gofiles) == 0 {
				continue
			}
			dir := top + "/" + e.Name()
			if n := listed[dir]; n != 1 {
				t.Errorf("%s/ holds Go code and appears %d times in DESIGN.md's module map, want exactly once", dir, n)
			}
		}
	}
	dirs := make([]string, 0, len(listed))
	for dir := range listed {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if fi, err := os.Stat(filepath.Join(root, dir)); err != nil || !fi.IsDir() {
			t.Errorf("the module map lists %s/, which does not exist", dir)
		}
	}
}

// TestCitedBenchmarksExist: every Benchmark* function DESIGN.md cites
// (the evaluation table, the experiment index, the ablation list) is
// declared in some _test.go file, so moving or renaming a benchmark
// cannot leave the docs pointing at nothing.
func TestCitedBenchmarksExist(t *testing.T) {
	root := repoRoot(t)
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, name := range regexp.MustCompile(`\bBenchmark[A-Z]\w*`).FindAllString(string(doc), -1) {
		cited[name] = true
	}
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no benchmarks — regex broken?")
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" ||
			(strings.HasPrefix(d.Name(), ".") && path != root)) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchDeclRe.FindAllSubmatch(data, -1) {
			delete(cited, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range cited {
		t.Errorf("DESIGN.md cites %s, which no _test.go file declares", name)
	}
}
