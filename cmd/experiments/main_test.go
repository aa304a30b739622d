package main

import (
	"strings"
	"testing"

	"ppm/internal/experiments"
)

func TestParseArgsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"x"}, "unexpected argument"},
		{"stray after flags", []string{"-table", "2", "stray-arg"}, "unexpected argument"},
		{"table high", []string{"-table", "7"}, "-table must be 1, 2 or 3"},
		{"table negative", []string{"-table", "-1"}, "-table must be 1, 2 or 3"},
		{"figure", []string{"-figure", "9"}, "-figure must be 2"},
		{"unknown flag", []string{"-frobnicate"}, "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseArgs(tc.args); err == nil {
				t.Fatalf("parseArgs(%v) accepted, want error containing %q", tc.args, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseArgs(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
	// Flags compose: what worked before still parses.
	o, err := parseArgs([]string{"-table", "2", "-metrics"})
	if err != nil || o != (options{table: 2, metrics: true}) {
		t.Fatalf("parseArgs = %+v, %v", o, err)
	}
	if o, err := parseArgs(nil); err != nil || o != (options{}) {
		t.Fatalf("parseArgs() = %+v, %v", o, err)
	}
}

func TestRunSingleTables(t *testing.T) {
	// Table 1 is the expensive one; cover tables 2-3 and figure 2 plus
	// ablations here (the full Table 1 sweep is covered by the root
	// package's tests and internal/experiments' benchmarks).
	for _, o := range []options{
		{table: 2},
		{table: 3},
		{figure: 2},
		{ablations: true},
	} {
		if err := run(o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunMetricsExperiments(t *testing.T) {
	if err := run(options{metrics: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLatencyAttributionExperiment(t *testing.T) {
	if err := run(options{attribution: true}); err != nil {
		t.Fatal(err)
	}
}

// TestScalingRowIsTwoPerCircuit: the scaling row's smoke test. Over a
// tree every cluster-wide operation floods, one request and one echo per
// circuit, so each count is 2(n-1) at every size; a sweep that dialled
// every host, or a flood that crossed a circuit twice, breaks it.
func TestScalingRowIsTwoPerCircuit(t *testing.T) {
	rows, err := experiments.RunScaling([]int{8, 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i, op := range []string{"snapshot", "sweep", "StopAll"} {
			if c := r.Ops[i]; c.Msgs != uint64(2*(r.Hosts-1)) || c.Elapsed <= 0 {
				t.Errorf("%d hosts: %s cost %d messages in %v, want %d in some time", r.Hosts, op, c.Msgs, c.Elapsed, 2*(r.Hosts-1))
			}
		}
	}
	if out := experiments.FormatScaling(rows); !strings.Contains(out, "status sweep") {
		t.Errorf("scaling table lacks its sweep column:\n%s", out)
	}
}
