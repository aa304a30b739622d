package doclint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPerfTrajectoryMatchesBaselines ties EXPERIMENTS.md's
// perf-trajectory table to the committed BENCH_<n>.json reports: one
// row per report in sequence order, none missing and none invented,
// and wherever a column is headed by a benchmark's name the row's cell
// quotes the allocs/op the report recorded — the one number in a row
// that is not noise.
func TestPerfTrajectoryMatchesBaselines(t *testing.T) {
	root := repoRoot(t)
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json at the repository root (%v)", err)
	}
	seq := func(path string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"))
		return n
	}
	sort.Slice(files, func(i, j int) bool { return seq(files[i]) < seq(files[j]) })

	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var header []string
	var rows [][]string
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case strings.HasPrefix(line, "| baseline |"):
			header = cells
		case strings.HasPrefix(line, "| `BENCH_"):
			rows = append(rows, cells)
		}
	}
	if header == nil {
		t.Fatal("EXPERIMENTS.md has no perf-trajectory table (no `| baseline |` header)")
	}
	if len(rows) != len(files) {
		t.Errorf("the table has %d rows, the repository root %d BENCH_*.json reports", len(rows), len(files))
	}

	allocsRe := regexp.MustCompile(`\b(\d+) allocs?\b`)
	for i := 0; i < len(rows) && i < len(files); i++ {
		name := filepath.Base(files[i])
		if rows[i][0] != "`"+name+"`" {
			t.Errorf("row %d is %s, want `%s`", i+1, rows[i][0], name)
			continue
		}
		raw, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Benchmarks []struct {
				Name   string `json:"name"`
				Allocs int64  `json:"allocs_per_op"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, b := range report.Benchmarks {
			for col, head := range header {
				if head != b.Name || col >= len(rows[i]) {
					continue
				}
				m := allocsRe.FindStringSubmatch(rows[i][col])
				if m == nil || m[1] != fmt.Sprint(b.Allocs) {
					t.Errorf("%s, column %s: the row says %q, the report %d allocs/op", name, head, rows[i][col], b.Allocs)
				}
			}
		}
	}
}
