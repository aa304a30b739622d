package doclint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
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
