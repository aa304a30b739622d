package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestParseArgsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"extra"}, "unexpected argument"},
		{"hosts low", []string{"-hosts", "1"}, "-hosts must be between"},
		{"hosts high", []string{"-hosts", "33"}, "-hosts must be between"},
		{"seed", []string{"-seed", "0"}, "-seed must be > 0"},
		{"watch", []string{"-watch", "-1"}, "-watch must be >= 0"},
		{"sweeps", []string{"-watch", "2", "-sweeps", "0"}, "-sweeps must be >= 1"},
		{"sweeps without watch", []string{"-sweeps", "4"}, "-sweeps requires -watch"},
		{"default-valued sweeps without watch", []string{"-sweeps", "3"}, "-sweeps requires -watch"},
		{"partition vs watch", []string{"-partition", "-watch", "2"}, "mutually exclusive"},
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
	o, err := parseArgs([]string{"-hosts", "6", "-seed", "9", "-watch", "2", "-sweeps", "4"})
	if err != nil || o != (options{hosts: 6, seed: 9, watch: 2, sweeps: 4}) {
		t.Fatalf("parseArgs = %+v, %v", o, err)
	}
}

// capture runs the CLI with args and returns what it printed.
func capture(t *testing.T, args []string) string {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("ppmtop %v: %v", args, err)
	}
	f, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("ppmtop %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCIStatusInvocations runs the golden-status job's ppmtop command
// lines, read out of the workflow file, the way the job does: each
// twice, the outputs compared, and the job's grep patterns matched. A
// command line that has rotted fails here, not only in the workflow.
func TestCIStatusInvocations(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`/tmp/ppmtop (.*) > (/tmp/status/\w+)1\.out`).FindAllStringSubmatch(string(ci), -1)
	if len(runs) != 3 {
		t.Fatalf("found %d ppmtop invocations in ci.yml, want plain, partitioned and watch", len(runs))
	}
	greps := 0
	for _, m := range runs {
		args := strings.Fields(m[1])
		first := capture(t, args)
		if first != capture(t, args) {
			t.Errorf("ppmtop %s: two runs differ", m[1])
		}
		if !strings.HasSuffix(first, "journal audit: clean\n") {
			t.Errorf("ppmtop %s: output does not end in a clean audit", m[1])
		}
		for _, g := range regexp.MustCompile(`grep -q '([^']+)' `+regexp.QuoteMeta(m[2])+`1\.out`).FindAllStringSubmatch(string(ci), -1) {
			greps++
			if !regexp.MustCompile("(?m)" + g[1]).MatchString(first) {
				t.Errorf("ppmtop %s: no line of the output matches %q", m[1], g[1])
			}
		}
	}
	if greps == 0 {
		t.Error("found none of the job's grep patterns; the partitioned step has one")
	}
}
