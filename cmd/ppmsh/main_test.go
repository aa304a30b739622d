package main

import (
	"os"
	"strings"
	"testing"
)

func shell(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	if err := run(strings.NewReader(script), &out); err != nil {
		t.Fatalf("shell error: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

func TestShellRunSnapControlStats(t *testing.T) {
	out := shell(t, `
hosts
run vax2 compute
snap
stop <vax2,6>
snap
cont <vax2,6>
stats <vax2,6>
fds <vax2,6>
kill <vax2,6>
stats <vax2,6>
quit
`)
	for _, want := range []string{
		"vax1   up",
		"created <vax2,6>",
		"<vax2,6> compute",
		"(stopped)",
		"state=running",
		"open descriptors",
		"state=exited",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellBroadcastAndHistory(t *testing.T) {
	out := shell(t, `
run vax1 a
run vax2 b
stopall
contall
hist <vax1,6>
killall
quit
`)
	if !strings.Contains(out, "stopall affected 2 processes") {
		t.Fatalf("stopall:\n%s", out)
	}
	if !strings.Contains(out, "killall affected 2 processes") {
		t.Fatalf("killall:\n%s", out)
	}
	if !strings.Contains(out, "stop") || !strings.Contains(out, "cont") {
		t.Fatalf("history missing events:\n%s", out)
	}
}

func TestShellFailureInjection(t *testing.T) {
	out := shell(t, `
run vax2 victim
crash vax2
sleep 5s
snap
restart vax2
part vax1|vax2,sun1
heal
time
quit
`)
	for _, want := range []string{
		"vax2 crashed",
		"partial",
		"vax2 restarted",
		"partitioned: vax1|vax2,sun1",
		"healed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellErrorsAreReported(t *testing.T) {
	out := shell(t, `
stop nonsense
stop <vax1,999>
run onehost
frobnicate
sleep xyz
quit
`)
	if strings.Count(out, "error:") < 5 {
		t.Fatalf("errors not reported:\n%s", out)
	}
}

func TestShellChildGenealogy(t *testing.T) {
	out := shell(t, `
run vax1 root
child vax2 kid <vax1,6>
snap
quit
`)
	if !strings.Contains(out, "└── <vax2,6> kid") {
		t.Fatalf("genealogy not shown:\n%s", out)
	}
}

func TestParseGPID(t *testing.T) {
	id, err := parseGPID("<vax1,42>")
	if err != nil || id.Host != "vax1" || id.PID != 42 {
		t.Fatalf("id=%v err=%v", id, err)
	}
	if _, err := parseGPID("junk"); err == nil {
		t.Fatal("bad gpid accepted")
	}
	if _, err := parseGPID("vax1,notanumber"); err == nil {
		t.Fatal("bad pid accepted")
	}
}

func TestShellNetworkTrace(t *testing.T) {
	out := shell(t, `
trace on
run vax2 job
trace show
trace off
quit
`)
	for _, want := range []string{"trace armed", "from", "vax1", "vax2", "trace off"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellWatchCommand(t *testing.T) {
	out := shell(t, `
run vax2 sentinel
run vax1 reactor
watch exit <vax2,6> stop <vax1,6>
kill <vax2,6>
sleep 3s
snap
quit
`)
	if !strings.Contains(out, "watch installed on vax2") {
		t.Fatalf("watch not installed:\n%s", out)
	}
	if !strings.Contains(out, "reactor (stopped)") {
		t.Fatalf("watch action did not stop the reactor:\n%s", out)
	}
}

func TestShellPsTable(t *testing.T) {
	out := shell(t, `
run vax1 root
child vax2 kid <vax1,6>
ps
quit
`)
	for _, want := range []string{"process", "state", "running", "<vax1,6> root", "  <vax2,6> kid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestShellLocate(t *testing.T) {
	out := shell(t, `
run vax1 worker
run vax2 worker
locate worker
locate ghost
quit
`)
	if !strings.Contains(out, "<vax1,6>") || !strings.Contains(out, "<vax2,6>") {
		t.Fatalf("locate output:\n%s", out)
	}
	if !strings.Contains(out, `no process named "ghost"`) {
		t.Fatalf("ghost case:\n%s", out)
	}
}

// TestShellTraceSession: the network trace counts exactly the journal
// records appended after "trace on" — remote creations, a snapshot, a
// crash whose traffic drops and a restart, shown twice. The golden is
// the output of the network tap this reduction replaced, byte for byte.
func TestShellTraceSession(t *testing.T) {
	out := shell(t, `trace on
run vax2 job
run sun1 job
snap
trace show
crash vax2
snap
sleep 5s
restart vax2
run vax2 again
trace show
trace off
trace show
quit
`)
	want, err := os.ReadFile("testdata/trace_session.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("trace session departs from testdata/trace_session.golden:\n%s", out)
	}
}
