package main

import (
	"fmt"
	"os"
	"strconv"
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
	err := run(options{hosts: 2, showJournal: true, filter: journal.Filter{
		Kinds: []journal.Kind{journal.LPMSiblingOpen, journal.LPMSiblingClose, journal.NetCircuitOpen},
		Host:  "vax1"}})
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

// TestCIJournalInvocations holds seeded journals to the determinism
// contract outside the library: each command line runs twice, the two
// outputs must match byte for byte, and the output must hold the
// records its scenario exists to exercise. The faulty line loses every
// 8th inter-host message. The period is 8 because the loss is periodic,
// not random: at 3 to 6 it lands on the same leg of the circuit
// handshake on every retry and the scripted set-up exits 1 (at 5,
// "circuit to vax2 broke during hello"); 7, 8 and 9 run, with 1, 4 and
// 1 lpm.request.retry records, so 8 exercises the retry path most.
func TestCIJournalInvocations(t *testing.T) {
	for _, tc := range []struct {
		args  string
		greps []string
	}{
		{"--hosts 4 --journal", nil},
		{"--hosts 4 --journal --drops 8", []string{"lpm.request.retry"}},
		{"--hosts 3 --journal --flap 3", []string{"net.flap.down", "circuit.transition"}},
	} {
		args := strings.Fields(tc.args)
		first, second := capture(t, args), capture(t, args)
		if first != second {
			t.Errorf("ppmtrace %s: two runs differ at %s", tc.args, firstDiff(first, second))
		}
		for _, g := range tc.greps {
			if !strings.Contains(first, g) {
				t.Errorf("ppmtrace %s: output has no %q", tc.args, g)
			}
		}
	}
}
