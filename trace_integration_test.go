package ppm_test

import (
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/detord"
)

// traceScenario is the twin of metricsScenario with causal tracing
// around the operations the tracer instruments: a traced snapshot
// flood and a traced stop ride inside the same three-host script,
// including a partition and a crash, and the function returns every
// assembled trace report.
func traceScenario(t *testing.T, seed int64) string {
	t.Helper()
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed: seed,
		Hosts: []ppm.HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c", Type: ppm.SunII},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	c.SetRecoveryList("u", "a", "b", "c")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run("a", "root")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := sess.RunChild("b", "wb", root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunChild("c", "wc", root); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(func() error {
		_, serr := sess.Snapshot()
		return serr
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(func() error { return sess.Stop(wb) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition([]string{"a", "b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if err := c.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	return c.TraceReportAll()
}

// TestDeterminismTraceReport: two identically seeded runs must record
// byte-identical span reports — the tracer introduces no
// nondeterminism (no maps, no randomness, no wall clock), and the
// traced paths are themselves deterministic.
func TestDeterminismTraceReport(t *testing.T) {
	a := traceScenario(t, 7)
	b := traceScenario(t, 7)
	if a != b {
		t.Fatalf("same seed produced different trace reports:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

// distance2Cluster builds the Table 2 line topology a--net1--gw--net2--c
// and starts a worker on c with no circuit yet from a, so a traced stop
// from a exercises the full cold path: pmd query, dial handshake,
// sibling hello, request, remote control, and the reply — across all
// three hosts.
func distance2Cluster(t *testing.T) (*ppm.Cluster, *ppm.Session, ppm.GPID) {
	t.Helper()
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "gw"}, {Name: "c"}},
		Segments: map[string][]string{
			"net1": {"a", "gw"},
			"net2": {"gw", "c"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sessA, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	sessC, err := c.Attach("u", "c")
	if err != nil {
		t.Fatal(err)
	}
	w, err := sessC.Run("c", "w")
	if err != nil {
		t.Fatal(err)
	}
	return c, sessA, w
}

// TestTraceDistance2Stop: a single stop of a process two hops away
// assembles into one trace tree spanning all three hosts, with kernel,
// dispatcher, handler, circuit and per-hop network spans present.
func TestTraceDistance2Stop(t *testing.T) {
	c, sess, w := distance2Cluster(t)
	id, err := c.Trace(func() error { return sess.Stop(w) })
	if err != nil {
		t.Fatal(err)
	}
	spans := c.Tracer().Spans() // the one trace recorded
	if len(spans) == 0 {
		t.Fatal("traced stop recorded no spans")
	}
	hosts := make(map[string]bool)
	names := make(map[string]bool)
	for _, sp := range spans {
		hosts[sp.Host] = true
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %s on %s ends before it starts: [%v, %v]",
				sp.Name, sp.Host, sp.Start, sp.End)
		}
	}
	for _, h := range []string{"a", "gw", "c"} {
		if !hosts[h] {
			t.Errorf("trace covers no span on host %s (hosts: %v)", h, hosts)
		}
	}
	for _, want := range []string{
		"op.control",          // root: the tool operation
		"circuit.establish.c", // cold-path circuit creation
		"pmd.query.c",         // Figure 2 name-server exchange
		"dispatch.pmd",        // pmd handling on the remote host
		"dispatch.endpoint",   // per-message protocol cost
		"lpm.request.c",       // handler occupancy on the requester
		"dispatch.control",    // control action on the target host
		"kernel.event.stop",   // the kernel's event message
		"exec.tool_leg",       // tool socket legs at the origin
		"net.hop.gw",          // first hop, paid by a
		"net.hop.c",           // second hop, forwarded by the gateway
		"net.reply.gw",        // reply transit, paid by c returning
		"net.reply.a",         // reply's second hop through the gateway
	} {
		if !names[want] {
			t.Errorf("trace missing span %q (got: %v)", want, detord.Keys(names))
		}
	}
	rep := c.TraceReport(id)
	if !strings.Contains(rep, "op.control") || !strings.Contains(rep, "3 hosts") {
		t.Errorf("report lacks root span or host count:\n%s", rep)
	}
}

// TestTraceDistance2StopSpanCount pins the exact number of spans a
// cold distance-2 stop records. A change here means an instrumentation
// point was added, removed, or — the bug this guards against —
// double-counted.
func TestTraceDistance2StopSpanCount(t *testing.T) {
	c, sess, w := distance2Cluster(t)
	if _, err := c.Trace(func() error { return sess.Stop(w) }); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Tracer().Spans()); got != distance2StopSpans {
		t.Errorf("distance-2 stop recorded %d spans, want %d (instrumentation changed?)",
			got, distance2StopSpans)
	}
}

// distance2StopSpans is the pinned span count for the cold distance-2
// stop above: the original 34 plus the two exec.tool_leg spans that
// close the profiler's tool-leg attribution gap.
const distance2StopSpans = 36

// TestUntracedRunsRecordNothing: with tracing never enabled, the whole
// scenario must leave the span buffer empty and put no trace bytes on
// the wire (the opt-in guarantee that keeps untraced runs byte
// identical to the seed).
func TestUntracedRunsRecordNothing(t *testing.T) {
	c, sess, w := distance2Cluster(t)
	if err := sess.Stop(w); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Tracer().Spans()); got != 0 {
		t.Fatalf("untraced run recorded %d spans", got)
	}
	if rep := c.TraceReportAll(); !strings.Contains(rep, "no traces recorded") {
		t.Fatalf("unexpected trace report:\n%s", rep)
	}
}
