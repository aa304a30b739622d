package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
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

// firstDiff names the first line at which two differing outputs part.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(al) && i < len(bl) && al[i] == bl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "(end of output)"
	}
	return fmt.Sprintf("line %d: %s vs %s", i+1, line(al), line(bl))
}

// TestCIStatusInvocations holds seeded dashboards to the determinism
// contract outside the library: each command line — plain, the
// partition/heal scenario whose sweeps complete partially, and watch
// mode — runs twice, the two outputs must match byte for byte, end in a
// clean journal audit, and have a line matching each of its patterns.
func TestCIStatusInvocations(t *testing.T) {
	for _, tc := range []struct {
		args  string
		lines []string
	}{
		{"-hosts 24", nil},
		{"-hosts 8 -partition", []string{`^unreachable: h05,h06,h07,h08$`}},
		{"-hosts 6 -watch 2 -sweeps 4", nil},
	} {
		args := strings.Fields(tc.args)
		first, second := capture(t, args), capture(t, args)
		if first != second {
			t.Errorf("ppmtop %s: two runs differ at %s", tc.args, firstDiff(first, second))
		}
		if !strings.HasSuffix(first, "journal audit: clean\n") {
			t.Errorf("ppmtop %s: output does not end in a clean audit", tc.args)
		}
		for _, pat := range tc.lines {
			if !regexp.MustCompile("(?m)" + pat).MatchString(first) {
				t.Errorf("ppmtop %s: no line of the output matches %q", tc.args, pat)
			}
		}
	}
}
