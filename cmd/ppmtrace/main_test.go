package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
)

func TestTraceDemoRuns(t *testing.T) {
	if err := runTrace(traceOptions{hosts: 2}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithMetrics(t *testing.T) {
	if err := runTrace(traceOptions{hosts: 2, showMetrics: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithSpansAndMoreHosts(t *testing.T) {
	if err := runTrace(traceOptions{hosts: 5, showSpans: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithJournal(t *testing.T) {
	err := runTrace(traceOptions{hosts: 2, showJournal: true, filter: journal.Filter{
		Kinds: []journal.Kind{journal.CircuitTransition, journal.LPMSiblingAuth, journal.NetCircuitOpen},
		Host:  "vax1"}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseArgsJournalFlags(t *testing.T) {
	o, err := parseTrace([]string{"-hosts", "3", "-journal",
		"-journal-kinds", "net,kernel.spawn", "-journal-host", "vax2",
		"-journal-since", "1s", "-journal-until", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.hosts != 3 || !o.showJournal {
		t.Fatalf("parsed %+v", o)
	}
	// The "net" family resolves to its twelve kinds here, once.
	if n := len(o.filter.Kinds); n != 13 || o.filter.Kinds[0] != journal.NetSend || o.filter.Kinds[n-1] != journal.KernelSpawn {
		t.Fatalf("kinds = %v", o.filter.Kinds)
	}
	if f := o.filter; f.Host != "vax2" || f.Since != time.Second || f.Until != 5*time.Second {
		t.Fatalf("filter = %+v", o)
	}
}

func TestParseArgsRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"extra"}, "unexpected argument"},
		{"hosts range", []string{"-hosts", "9"}, "-hosts must be between"},
		{"journal vs spans", []string{"-journal", "-spans"}, "mutually exclusive"},
		{"journal vs metrics", []string{"-journal", "-metrics"}, "mutually exclusive"},
		{"kinds without journal", []string{"-journal-kinds", "net"}, "require -journal"},
		{"host without journal", []string{"-journal-host", "vax1"}, "require -journal"},
		{"since without journal", []string{"-journal-since", "1s"}, "require -journal"},
		{"unknown kind", []string{"-journal", "-journal-kinds", "bogus.kind"}, "unknown journal kind"},
		{"host outside the scenario", []string{"-journal", "-journal-host", "nosuchhost"}, "not in the scenario (vax1..vax2)"},
		{"inverted window", []string{"-journal", "-journal-since", "5s", "-journal-until", "1s"}, "is before -journal-since"},
		{"unknown flag", []string{"-frobnicate"}, "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseTrace(tc.args); err == nil {
				t.Fatalf("parseTrace(%v) accepted, want error containing %q", tc.args, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseTrace(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseArgsKindPrefixes(t *testing.T) {
	for _, ok := range []string{"net", "lpm.sibling", "wire.encode", "snapshot", "lpm.flood"} {
		if _, err := parseTrace([]string{"-journal", "-journal-kinds", ok}); err != nil {
			t.Errorf("kind %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"net.", "lpm.siblings", "kernelspawn", "net,,kernel.spawn"} {
		if _, err := parseTrace([]string{"-journal", "-journal-kinds", bad}); err == nil {
			t.Errorf("kind %q accepted, want rejection", bad)
		}
	}
}

// capture runs one command line through the front end and returns
// what it printed.
func capture(t *testing.T, line string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := cli(strings.Fields(line), &stdout, &stderr); code != 0 {
		t.Fatalf("ppmtrace %s: exit %d: %s", line, code, stderr.String())
	}
	return stdout.String()
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

// invocation is one command line of a determinism test, the patterns
// some line of its output must match, and its subtest name, which is
// the command line when left empty.
type invocation struct {
	line  string
	lines []string
	name  string
}

// checkInvocations holds seeded output to the determinism contract
// outside the library: each command line runs twice, the two outputs
// must match byte for byte, and a line of the output must match each of
// its patterns.
func checkInvocations(t *testing.T, cases ...invocation) {
	t.Helper()
	for _, tc := range cases {
		name := tc.name
		if name == "" {
			name = tc.line
		}
		t.Run(name, func(t *testing.T) {
			first, second := capture(t, tc.line), capture(t, tc.line)
			if first != second {
				t.Errorf("ppmtrace %s: two runs differ at %s", tc.line, firstDiff(first, second))
			}
			for _, pat := range tc.lines {
				if !regexp.MustCompile("(?m)" + pat).MatchString(first) {
					t.Errorf("ppmtrace %s: no line of the output matches %q", tc.line, pat)
				}
			}
		})
	}
}

// TestCIJournalInvocations holds seeded journals to the determinism
// contract; each must hold the records its scenario exists to exercise.
// The faulty line loses every 8th inter-host message. The period is 8
// because the loss is periodic, not random: at 3 to 6 it lands on the
// same leg of the circuit handshake on every retry and the scripted
// set-up exits 1 (at 5, "circuit to vax2 broke during hello"); 7, 8
// and 9 run, with 1, 4 and 1 lpm.request.retry records, so 8 exercises
// the retry path most.
func TestCIJournalInvocations(t *testing.T) {
	checkInvocations(t,
		invocation{line: "--hosts 4 --journal"},
		invocation{line: "--hosts 4 --journal --drops 8", lines: []string{`lpm\.request\.retry`}},
		invocation{line: "--hosts 3 --journal --flap 3", lines: []string{`net\.flap\.down`, `circuit\.transition`}},
	)
}

// TestModes holds the front end to its exit statuses: a first argument
// that names no mode is rejected with the command's usage, which lists
// every mode, and each mode's -h prints its own usage and succeeds.
func TestModes(t *testing.T) {
	const empty = `^\z`
	for _, tc := range []struct {
		line, stdout, stderr string
		code                 int
	}{
		{"nosuch", empty, `^ppmtrace: unexpected argument "nosuch"\nusage: ppmtrace \[-hosts N\].*\n +ppmtrace top \[.*\n +ppmtrace prof \[`, 2},
		{"-h", `^usage: ppmtrace \[-hosts N\].*\n +ppmtrace top \[.*\n +ppmtrace prof \[.*\njournal record kinds: net\.send `, empty, 0},
		{"top -h", `^usage: ppmtrace top \[-hosts N\] \[-seed S\] \[-watch N \[-sweeps K\]\] \[-partition\]\n\z`, empty, 0},
		{"prof -h", `^usage: ppmtrace prof \[-hosts N\] \[-op NAME\] \[-host H\] \[-top N\] \[-folded \| -critical\]\n\z`, empty, 0},
		{"top -sweeps 4", empty, `^ppmtrace top: -sweeps requires -watch\nusage: ppmtrace top \[`, 2},
		{"prof -folded -critical", empty, `^ppmtrace prof: -folded and -critical are mutually exclusive\nusage: ppmtrace prof \[`, 2},
		{"prof -hosts 3 -op nosuch", empty, `^ppmtrace prof: -op "nosuch" matches no recorded op type .*\n\z`, 1},
		{"top prof", empty, `^ppmtrace top: unexpected argument "prof"\n`, 2},
	} {
		var stdout, stderr bytes.Buffer
		code := cli(strings.Fields(tc.line), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("ppmtrace %s: exit %d, want %d", tc.line, code, tc.code)
		}
		for _, out := range []struct{ name, got, want string }{
			{"stdout", stdout.String(), tc.stdout}, {"stderr", stderr.String(), tc.stderr},
		} {
			if !regexp.MustCompile(out.want).MatchString(out.got) {
				t.Errorf("ppmtrace %s: %s\n%s\nwant a match of %q", tc.line, out.name, out.got, out.want)
			}
		}
	}
}
