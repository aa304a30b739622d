package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
)

func TestTraceDemoRuns(t *testing.T) {
	if err := run(options{hosts: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithMetrics(t *testing.T) {
	if err := run(options{hosts: 2, showMetrics: true}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithSpansAndMoreHosts(t *testing.T) {
	if err := run(options{hosts: 5, showSpans: true}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDemoWithJournal(t *testing.T) {
	err := run(options{hosts: 2, showJournal: true,
		journalKinds: []journal.Kind{journal.LPMSiblingOpen, journal.LPMSiblingClose, journal.NetCircuitOpen},
		journalHost:  "vax1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseArgsJournalFlags(t *testing.T) {
	o, err := parseArgs([]string{"-hosts", "3", "-journal",
		"-journal-kinds", "net,kernel.spawn", "-journal-host", "vax2",
		"-journal-since", "1s", "-journal-until", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.hosts != 3 || !o.showJournal {
		t.Fatalf("parsed %+v", o)
	}
	// The "net" family resolves to its twelve kinds here, once.
	if n := len(o.journalKinds); n != 13 || o.journalKinds[0] != journal.NetSend || o.journalKinds[n-1] != journal.KernelSpawn {
		t.Fatalf("kinds = %v", o.journalKinds)
	}
	if o.journalHost != "vax2" || o.journalSince != time.Second || o.journalUntil != 5*time.Second {
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
			if _, err := parseArgs(tc.args); err == nil {
				t.Fatalf("parseArgs(%v) accepted, want error containing %q", tc.args, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseArgs(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseArgsKindPrefixes(t *testing.T) {
	for _, ok := range []string{"net", "lpm.sibling", "wire.encode", "snapshot", "lpm.flood"} {
		if _, err := parseArgs([]string{"-journal", "-journal-kinds", ok}); err != nil {
			t.Errorf("kind %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"net.", "lpm.siblings", "kernelspawn", "net,,kernel.spawn"} {
		if _, err := parseArgs([]string{"-journal", "-journal-kinds", bad}); err == nil {
			t.Errorf("kind %q accepted, want rejection", bad)
		}
	}
}

// capture runs the CLI with args and returns what it printed.
func capture(t *testing.T, args []string) string {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("ppmtrace %v: %v", args, err)
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
		t.Fatalf("ppmtrace %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCIJournalInvocations runs the golden-journal job's ppmtrace
// command lines, read out of the workflow file, the way the job does:
// each twice, the outputs compared, and the job's grep patterns looked
// for. A command line that has rotted (the faulty step once used a loss
// period under which the scripted set-up cannot finish) fails here, not
// only in the workflow.
func TestCIJournalInvocations(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`/tmp/ppmtrace (.*--journal.*) > (/tmp/journals/\w+)1\.journal`).FindAllStringSubmatch(string(ci), -1)
	if len(runs) != 3 {
		t.Fatalf("found %d ppmtrace --journal invocations in ci.yml, want plain, faulty and flapping", len(runs))
	}
	for _, m := range runs {
		args := strings.Fields(m[1])
		first := capture(t, args)
		if first != capture(t, args) {
			t.Errorf("ppmtrace %s: two runs differ", m[1])
		}
		greps := regexp.MustCompile(`grep -q '([^']+)' `+regexp.QuoteMeta(m[2])+`1\.journal`).FindAllStringSubmatch(string(ci), -1)
		for _, g := range greps {
			if !strings.Contains(first, g[1]) {
				t.Errorf("ppmtrace %s: output has no %q", m[1], g[1])
			}
		}
	}
}
