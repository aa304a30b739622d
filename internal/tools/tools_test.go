package tools

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/proc"
)

func TestFormatStatsRunning(t *testing.T) {
	out := FormatStats(proc.Info{
		ID: proc.GPID{Host: "vax1", PID: 9}, Name: "job", User: "felipe",
		State:  proc.Running,
		Rusage: proc.Rusage{CPUTime: 2 * time.Second, Syscalls: 10, MsgsSent: 3, MsgsRecv: 4},
	})
	for _, want := range []string{"<vax1,9>", "job", "running", "2s", "10", "msgs sent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exit code") {
		t.Fatal("running process should not show exit info")
	}
	if strings.Contains(out, "max rss") {
		t.Fatal("zero rss should be omitted")
	}
}

func TestFormatStatsExited(t *testing.T) {
	out := FormatStats(proc.Info{
		ID: proc.GPID{Host: "vax1", PID: 9}, Name: "job", State: proc.Exited,
		ExitCode: 3, StartedAt: time.Second, ExitedAt: 5 * time.Second,
		Rusage: proc.Rusage{MaxRSSKB: 128},
	})
	if !strings.Contains(out, "exit code 3 after 4s") {
		t.Fatalf("exit line wrong:\n%s", out)
	}
	if !strings.Contains(out, "128 KB") {
		t.Fatalf("rss missing:\n%s", out)
	}
}

func TestFormatStatsTableSortedByCPU(t *testing.T) {
	out := FormatStatsTable([]proc.Info{
		{ID: proc.GPID{Host: "a", PID: 1}, Name: "small", Rusage: proc.Rusage{CPUTime: time.Second}},
		{ID: proc.GPID{Host: "a", PID: 2}, Name: "big", Rusage: proc.Rusage{CPUTime: time.Minute}},
	})
	if strings.Index(out, "big") > strings.Index(out, "small") {
		t.Fatalf("not sorted by cpu:\n%s", out)
	}
}

func TestFormatFDs(t *testing.T) {
	out := FormatFDs(proc.GPID{Host: "a", PID: 1}, []string{"0:/dev/tty", "3:/tmp/x"})
	if !strings.Contains(out, "  3  /tmp/x") {
		t.Fatalf("fd line wrong:\n%s", out)
	}
	empty := FormatFDs(proc.GPID{Host: "a", PID: 1}, nil)
	if !strings.Contains(empty, "(none)") {
		t.Fatal("empty case wrong")
	}
}

func mkIPC(pid proc.PID, at time.Duration) proc.Event {
	return proc.Event{Kind: proc.EvIPC, Proc: proc.GPID{Host: "a", PID: pid}, At: at}
}

func TestAnalyzeIPC(t *testing.T) {
	events := []proc.Event{
		mkIPC(1, time.Second),
		{Kind: proc.EvFork, Proc: proc.GPID{Host: "a", PID: 1}, At: 2 * time.Second}, // ignored
		mkIPC(1, 3*time.Second),
		mkIPC(2, 4*time.Second),
	}
	stats := AnalyzeIPC(events)
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Events != 2 || stats[0].First != time.Second || stats[0].Last != 3*time.Second {
		t.Fatalf("pid1 stat: %+v", stats[0])
	}
	out := FormatIPC(stats)
	if !strings.Contains(out, "<a,1>") || !strings.Contains(out, "<a,2>") {
		t.Fatalf("format:\n%s", out)
	}
	// Rate: 1 inter-arrival over 2s = 0.5/s.
	if !strings.Contains(out, "0.50") {
		t.Fatalf("rate wrong:\n%s", out)
	}
}

func TestFormatTimeline(t *testing.T) {
	events := []proc.Event{
		{At: time.Second, Kind: proc.EvFork, Proc: proc.GPID{Host: "a", PID: 1},
			Child: proc.GPID{Host: "a", PID: 2}},
		{At: 2 * time.Second, Kind: proc.EvSignal, Proc: proc.GPID{Host: "a", PID: 2},
			Signal: proc.SIGUSR1},
		{At: 3 * time.Second, Kind: proc.EvExec, Proc: proc.GPID{Host: "a", PID: 2},
			Detail: "a.out"},
	}
	out := FormatTimeline(events)
	for _, want := range []string{"child=<a,2>", "sig=SIGUSR1", "a.out", "fork", "exec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Fatalf("lines = %d", lines)
	}
}

func TestHistogram(t *testing.T) {
	var events []proc.Event
	for i := 0; i < 10; i++ {
		events = append(events, mkIPC(1, time.Duration(i)*100*time.Millisecond))
	}
	h := HistogramOf(events, 500*time.Millisecond)
	if len(h.Buckets) != 2 || h.Buckets[0] != 5 || h.Buckets[1] != 5 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	out := h.Format()
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := HistogramOf(nil, time.Second)
	if len(h.Buckets) != 0 {
		t.Fatal("empty events should yield no buckets")
	}
	if !strings.Contains(h.Format(), "no events") {
		t.Fatal("empty format wrong")
	}
	if got := HistogramOf([]proc.Event{mkIPC(1, 0)}, 0); len(got.Buckets) != 0 {
		t.Fatal("zero width should yield no buckets")
	}
}

func TestFormatSnapshotTable(t *testing.T) {
	snap := proc.Merge(0, []proc.Info{
		{ID: proc.GPID{Host: "a", PID: 1}, Name: "root", State: proc.Running,
			Rusage: proc.Rusage{CPUTime: time.Second, Syscalls: 12, MaxRSSKB: 64}},
		{ID: proc.GPID{Host: "b", PID: 2}, Parent: proc.GPID{Host: "a", PID: 1},
			Name: "kid", State: proc.Stopped},
	})
	snap.Partial = []string{"c"}
	out := FormatSnapshotTable(snap)
	for _, want := range []string{"<a,1> root", "  <b,2> kid", "stopped", "12", "64", "no information from: c"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Child indented under parent.
	if strings.Index(out, "<a,1>") > strings.Index(out, "<b,2>") {
		t.Fatalf("order wrong:\n%s", out)
	}
}

func TestFormatFlows(t *testing.T) {
	flows := []journal.Flow{{From: "vax1", To: "vax2", Msgs: 8, Bytes: 712, Drops: 1}}
	want := "from       to             msgs      bytes  drops\n" +
		"vax1       vax2              8        712      1\n"
	if got := FormatFlows(flows, 0); got != want {
		t.Fatalf("FormatFlows:\n%s\nwant:\n%s", got, want)
	}
	if got := FormatFlows(flows, 17); !strings.HasSuffix(got, "evicted 17 records of it)\n") {
		t.Fatalf("eviction not reported:\n%s", got)
	}
}
