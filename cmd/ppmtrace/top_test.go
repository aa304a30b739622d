package main

import (
	"strings"
	"testing"
)

func TestTopParseArgsRejections(t *testing.T) {
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
			if _, err := parseTop(tc.args); err == nil {
				t.Fatalf("parseTop(%v) accepted, want error containing %q", tc.args, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseTop(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
	o, err := parseTop([]string{"-hosts", "6", "-seed", "9", "-watch", "2", "-sweeps", "4"})
	if err != nil || o != (topOptions{hosts: 6, seed: 9, watch: 2, sweeps: 4}) {
		t.Fatalf("parseTop = %+v, %v", o, err)
	}
}

// auditClean matches a dashboard that ends in a clean journal audit.
const auditClean = `^journal audit: clean\n\z`

// TestCIStatusInvocations holds the dashboards (plain, the
// partition/heal scenario whose sweeps complete partially, and watch
// mode) to the determinism contract and to a clean journal audit.
func TestCIStatusInvocations(t *testing.T) {
	checkInvocations(t,
		invocation{line: "top -hosts 24", lines: []string{auditClean}},
		invocation{line: "top -hosts 8 -partition", lines: []string{`^unreachable: h05,h06,h07,h08$`, auditClean}},
		invocation{line: "top -hosts 6 -watch 2 -sweeps 4", lines: []string{auditClean}},
	)
}
