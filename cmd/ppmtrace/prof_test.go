package main

import (
	"bytes"
	"strings"
	"testing"

	"ppm/internal/profile"
)

func TestProfParseArgsDefaults(t *testing.T) {
	o, err := parseProf(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.hosts != 8 || o.op != "" || o.host != "" || o.top != 0 || o.folded || o.critical {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestProfParseArgsAccepts(t *testing.T) {
	o, err := parseProf([]string{"-hosts", "4", "-op", "snapshot",
		"-host", "h03", "-top", "2", "-critical"})
	if err != nil {
		t.Fatal(err)
	}
	if o.hosts != 4 || o.op != "snapshot" || o.host != "h03" || o.top != 2 || !o.critical {
		t.Fatalf("parsed %+v", o)
	}
}

func TestProfParseArgsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"snapshot"}, "unexpected argument"},
		{"hosts too low", []string{"-hosts", "1"}, "-hosts must be between"},
		{"hosts too high", []string{"-hosts", "25"}, "-hosts must be between"},
		{"negative top", []string{"-top", "-1"}, "-top must be >= 0"},
		{"folded and critical", []string{"-folded", "-critical"}, "mutually exclusive"},
		{"top with folded", []string{"-folded", "-top", "3"}, "meaningless with -folded"},
		{"unknown host", []string{"-host", "h99"}, "not in the scenario"},
		{"host outside count", []string{"-hosts", "3", "-host", "h04"}, "not in the scenario"},
		{"unknown flag", []string{"-frobnicate"}, "not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseProf(c.args)
			if err == nil {
				t.Fatalf("args %v accepted, want error containing %q", c.args, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("args %v: error %q, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// runOnce renders one full prof run into a buffer.
func runOnce(t *testing.T, o profOptions) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runProf(o, &buf); err != nil {
		t.Fatalf("run(%+v): %v", o, err)
	}
	return buf.String()
}

// TestRunDeterministic holds each prof output to the determinism
// contract at 12 hosts; the attribution table must also end its
// journal/trace audit clean.
func TestRunDeterministic(t *testing.T) {
	checkInvocations(t,
		invocation{name: "table", line: "prof -hosts 12", lines: []string{`^journal/trace audit: clean$`}},
		invocation{name: "folded", line: "prof -hosts 12 -folded"},
		invocation{name: "critical", line: "prof -hosts 12 -critical"},
	)
}

// TestRunTableContent sanity-checks what the default report must carry:
// the op rows the scenario generates, a clean audit, and the timeline
// block.
func TestRunTableContent(t *testing.T) {
	out := runOnce(t, profOptions{hosts: 3})
	for _, want := range []string{
		"=== ppmprof:", "op.create", "op.control", "op.snapshot", "op.status",
		"per-host timelines:", "journal/trace audit: clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestRunConservation holds every request of the real scenario to the
// acceptance bar: phases sum exactly to the end-to-end time, and the
// unattributed share stays under 5%% of the workload total.
func TestRunConservation(t *testing.T) {
	prof, _, err := record(profOptions{hosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	var total, unattr int64
	for _, r := range prof.Requests {
		if !r.Conserved() {
			t.Errorf("trace %d (%s): phases %v do not sum to total %v",
				r.Trace, r.Op, r.Phases, r.Total())
		}
		total += int64(r.Total())
		unattr += int64(r.Phases[profile.PhaseUnattributed])
	}
	if total == 0 {
		t.Fatal("scenario produced no requests")
	}
	if pct := 100 * float64(unattr) / float64(total); pct > 5 {
		t.Errorf("unattributed share %.2f%% exceeds the 5%% budget", pct)
	}
}

func TestRunFilters(t *testing.T) {
	out := runOnce(t, profOptions{hosts: 3, op: "snapshot"})
	if strings.Contains(out, "op.control") {
		t.Errorf("-op snapshot leaked op.control rows:\n%s", out)
	}
	// A typo must not read as an empty profile with a clean audit.
	var buf bytes.Buffer
	err := runProf(profOptions{hosts: 3, op: "nosuch"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `-op "nosuch"`) || !strings.Contains(err.Error(), "op.control, op.control_all, op.create, op.snapshot, op.status") {
		t.Errorf("-op nosuch: error %v, want one naming the recorded op types; output:\n%s", err, buf.String())
	}
	out = runOnce(t, profOptions{hosts: 3, critical: true, top: 1})
	if got := strings.Count(out, "critical path of slowest"); got != 1 {
		t.Errorf("-critical -top 1 rendered %d paths, want 1:\n%s", got, out)
	}
}
