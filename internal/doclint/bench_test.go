package doclint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchRow is one workload's metric in a BENCH_<n>.json, as
// scripts/benchpair.sh writes it: every field is required.
type benchRow struct {
	ParentQ1     *float64 `json:"parent_q1"`
	ParentMedian *float64 `json:"parent_median"`
	ParentQ3     *float64 `json:"parent_q3"`
	ChangeMedian *float64 `json:"change_median"`
	Won          *int     `json:"won"`
	MedianDiff   *float64 `json:"median_diff"`
	SignP        *float64 `json:"sign_p"`
}

// TestBenchFilesNameBenchmarkMetrics: every BENCH_<n>.json at the root
// parses, carries the conditions of its runs, and names only workloads
// and metrics that BENCHMARK.json defines, so one metric can be read
// across every PR's file.
func TestBenchFilesNameBenchmarkMetrics(t *testing.T) {
	root := repoRoot(t)
	workloads, metrics := benchmarkNames(t, root)
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		name := filepath.Base(path)
		var run struct {
			Seed       *int                           `json:"seed"`
			RunSeconds *float64                       `json:"run_seconds"`
			Pairs      *int                           `json:"pairs"`
			Nproc      *int                           `json:"nproc"`
			Go         string                         `json:"go"`
			Workloads  map[string]map[string]benchRow `json:"workloads"`
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields() // a misspelt field is an error, not a zero
		if err := dec.Decode(&run); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if run.Seed == nil || run.RunSeconds == nil || run.Pairs == nil || run.Nproc == nil || run.Go == "" {
			t.Errorf("%s: seed, run_seconds, pairs, nproc and go are all required", name)
		}
		if len(run.Workloads) == 0 {
			t.Errorf("%s: no workloads", name)
		}
		for w, rows := range run.Workloads {
			if !workloads[w] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", name, w)
			}
			for m, r := range rows {
				if !metrics[m] {
					t.Errorf("%s: %s/%s: metric %q is not in BENCHMARK.json", name, w, m, m)
				}
				if r.ParentQ1 == nil || r.ParentMedian == nil || r.ParentQ3 == nil || r.ChangeMedian == nil ||
					r.Won == nil || r.MedianDiff == nil || r.SignP == nil {
					t.Errorf("%s: %s/%s: a field is missing", name, w, m)
				}
			}
		}
	}
}

// benchmarkNames returns the workloads and the metrics BENCHMARK.json
// defines; cmd/ppmload's tests hold it to print every one of them.
func benchmarkNames(t *testing.T, root string) (workloads, metrics map[string]bool) {
	t.Helper()
	type named []struct{ Name string }
	var spec struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics = map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return workloads, metrics
}

var (
	budgetLineRe = regexp.MustCompile(`(?m)^ *([a-z_]+)/([a-z_]+) budget: [0-9.]+$`)
	ciStepRe     = regexp.MustCompile(`(?m)^      - name: `)
	ciLoopRe     = regexp.MustCompile(`for w in ([a-z ]+); do`)
	ciMetricsRe  = regexp.MustCompile(`metrics="([a-z_ ]+)"`)
	ciCaseRe     = regexp.MustCompile(`case "\$w" in ([a-z |]+)\) metrics="\$metrics ([a-z_]+)" ;; esac`)
	ciBudgetRe   = regexp.MustCompile(`\$w/([a-z_]+|\$m) budget`)
)

// TestPerformanceBudgetsNameBenchmarkMetrics: every `<workload>/<metric>
// budget:` line of PERFORMANCE.md names a workload of BENCHMARK.json and
// a metric ppmload prints (`events_per_op` is its `sim.events_per_op`),
// and every workload × metric the CI load job holds to a budget has
// exactly one such line to read.
func TestPerformanceBudgetsNameBenchmarkMetrics(t *testing.T) {
	root := repoRoot(t)
	workloads, metrics := benchmarkNames(t, root)
	doc, err := os.ReadFile(filepath.Join(root, "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	for _, m := range budgetLineRe.FindAllStringSubmatch(string(doc), -1) {
		lines[m[1]+"/"+m[2]]++
		if !workloads[m[1]] {
			t.Errorf("PERFORMANCE.md: %q: workload %q is not in BENCHMARK.json", m[0], m[1])
		}
		if name := strings.Replace(m[2], "events_per_op", "sim.events_per_op", 1); !metrics[name] {
			t.Errorf("PERFORMANCE.md: %q: ppmload prints no metric %q", m[0], name)
		}
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, load, ok := strings.Cut(string(ci), "\n  load:\n")
	if !ok {
		t.Fatal("ci.yml has no load job")
	}
	read := 0
	for _, step := range ciStepRe.Split(load, -1) {
		loop := ciLoopRe.FindStringSubmatch(step)
		if loop == nil || !ciBudgetRe.MatchString(step) {
			continue
		}
		for _, w := range strings.Fields(loop[1]) {
			var held []string
			for _, b := range ciBudgetRe.FindAllStringSubmatch(step, -1) {
				if b[1] != "$m" {
					held = append(held, b[1])
					continue
				}
				if m := ciMetricsRe.FindStringSubmatch(step); m != nil {
					held = append(held, strings.Fields(m[1])...)
				}
				for _, c := range ciCaseRe.FindAllStringSubmatch(step, -1) {
					for _, cw := range strings.Split(c[1], "|") {
						if strings.TrimSpace(cw) == w {
							held = append(held, c[2])
						}
					}
				}
			}
			for _, m := range held {
				read++
				if n := lines[w+"/"+m]; n != 1 {
					t.Errorf("CI's load job reads %s/%s's budget, and PERFORMANCE.md has %d lines of it, want 1", w, m, n)
				}
			}
		}
	}
	if read == 0 {
		t.Fatal("found no budget the CI load job reads; has its shape changed?")
	}
	t.Logf("%d budget lines, %d read by CI", len(lines), read)
}
