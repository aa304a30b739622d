package status

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/wire"
)

func sampleReport() Report {
	return Report{
		Host: "h02", At: 5 * time.Second,
		ProcsLive: 3, ProcsTotal: 7, Load100: 123,
		TimersPending: 4,
		DaemonUp:      true, DaemonLPMs: 2,
		NetUp: true, NetConns: 3,
		Circuits: []CircuitStatus{
			{Peer: "h01", State: "open", Age: 3 * time.Second},
			{Peer: "h03", State: "breaking", Age: 500 * time.Millisecond},
		},
		PendingReqs: 1, RetryBackoffs: 2,
		ReplyCache: 5, InflightOps: 1,
		JournalLen: 100, JournalDropped: 7,
		OpLatencies: []OpLatency{
			{Op: "Control", Count: 9, P50: 10 * time.Millisecond,
				P95: 40 * time.Millisecond, P99: 80 * time.Millisecond},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	var got Report
	if err := wire.Decode(wire.Encode(&want), &got); err != nil {
		t.Fatal(err)
	}
	if got.Host != want.Host || got.At != want.At ||
		got.ProcsLive != want.ProcsLive || got.ProcsTotal != want.ProcsTotal ||
		got.Load100 != want.Load100 || got.TimersPending != want.TimersPending ||
		got.DaemonUp != want.DaemonUp || got.DaemonLPMs != want.DaemonLPMs ||
		got.NetUp != want.NetUp || got.NetConns != want.NetConns ||
		got.PendingReqs != want.PendingReqs || got.RetryBackoffs != want.RetryBackoffs ||
		got.ReplyCache != want.ReplyCache || got.InflightOps != want.InflightOps ||
		got.JournalLen != want.JournalLen || got.JournalDropped != want.JournalDropped {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Circuits) != 2 || got.Circuits[0] != want.Circuits[0] ||
		got.Circuits[1] != want.Circuits[1] {
		t.Fatalf("circuits: %+v", got.Circuits)
	}
	if len(got.OpLatencies) != 1 || got.OpLatencies[0] != want.OpLatencies[0] {
		t.Fatalf("op latencies: %+v", got.OpLatencies)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	r := sampleReport()
	b := wire.Encode(&r)
	if err := wire.Decode(b[:len(b)-3], &Report{}); err == nil {
		t.Fatal("truncated report decoded without error")
	}
}

func TestResetRetainsCapacity(t *testing.T) {
	r := sampleReport()
	c0, o0 := cap(r.Circuits), cap(r.OpLatencies)
	r.Reset("h09", time.Second)
	if r.Host != "h09" || r.At != time.Second {
		t.Fatalf("reset header: %+v", r)
	}
	if len(r.Circuits) != 0 || len(r.OpLatencies) != 0 {
		t.Fatalf("reset left entries: %+v", r)
	}
	if cap(r.Circuits) != c0 || cap(r.OpLatencies) != o0 {
		t.Fatalf("reset dropped capacity: %d/%d -> %d/%d",
			c0, o0, cap(r.Circuits), cap(r.OpLatencies))
	}
	if r.ProcsTotal != 0 || r.RetryBackoffs != 0 || r.JournalDropped != 0 || r.DaemonUp {
		t.Fatalf("reset left fields: %+v", r)
	}
}

func TestSweepRenderDeterministic(t *testing.T) {
	mk := func() Sweep {
		b := sampleReport()
		a := Report{Host: "h01", At: 5 * time.Second, DaemonUp: true}
		return Sweep{
			At: 6 * time.Second, Origin: "h01", User: "op",
			Reports:     []Report{b, a}, // deliberately unsorted
			Unreachable: []string{"h05", "h04"},
		}
	}
	s1, s2 := mk(), mk()
	s1.Sort()
	s2.Sort()
	r1, r2 := s1.Render(), s2.Render()
	if r1 != r2 {
		t.Fatalf("renders differ:\n%s\n--\n%s", r1, r2)
	}
	lines := strings.Split(strings.TrimSuffix(r1, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 2 rows + unreachable, got %d lines:\n%s", len(lines), r1)
	}
	if lines[0] != "=== cluster status @ T+6s origin=h01 user=op (2/4 hosts) ===" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "h01 ") {
		t.Fatalf("rows not sorted by host: %q", lines[1])
	}
	if lines[3] != "unreachable: h04,h05" {
		t.Fatalf("unreachable line: %q", lines[3])
	}
	// The load average renders as fixed-point text — no float formatting.
	if !strings.Contains(lines[2], "load=1.23") {
		t.Fatalf("load rendering: %q", lines[2])
	}
	if !strings.Contains(lines[2], "circ=[h01:open/3s h03:breaking/500ms]") {
		t.Fatalf("circuit table: %q", lines[2])
	}
	if !strings.Contains(lines[2], "ops=[Control:n=9/10ms/40ms/80ms]") {
		t.Fatalf("op latencies: %q", lines[2])
	}
}
