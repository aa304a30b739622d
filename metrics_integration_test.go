package ppm_test

import (
	"strings"
	"testing"
	"time"

	"ppm"
)

// metricsScenario drives a three-host computation through the paths the
// metrics layer instruments — remote creation, sibling traffic, a
// snapshot flood, a partition, and a crash with recovery — and returns
// the cluster's full metrics report.
func metricsScenario(t *testing.T, seed int64) string {
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
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Stop(wb); err != nil {
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
	return c.MetricsReport()
}

// TestDeterminismMetricsSnapshot: two clusters fed the identical script
// must count the identical things — the metrics layer introduces no
// nondeterminism of its own, and every instrumented path is itself
// deterministic.
func TestDeterminismMetricsSnapshot(t *testing.T) {
	a := metricsScenario(t, 7)
	b := metricsScenario(t, 7)
	if a != b {
		t.Fatalf("same seed produced different metrics reports:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

// TestMetricsReportFamilies: the instrumented scenario must populate
// every layer's metric family — network, wire protocol, kernel, name
// server, and LPM.
func TestMetricsReportFamilies(t *testing.T) {
	report := metricsScenario(t, 7)
	if strings.TrimSpace(report) == "" || strings.Contains(report, "(no metrics recorded)") {
		t.Fatalf("empty metrics report:\n%s", report)
	}
	for _, family := range []string{"[simnet]", "[wire]", "[kernel]", "[daemon]", "[lpm]"} {
		if !strings.Contains(report, family) {
			t.Errorf("report missing %s family:\n%s", family, report)
		}
	}
}

// TestMetricsCrossLayerConsistency: independent layers counting the
// same traffic must agree. Wire encodes every frame the LPMs and pmd
// send over circuits and datagrams, so the wire totals can never exceed
// what simnet accepted plus what was dropped.
func TestMetricsCrossLayerConsistency(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run("a", "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunChild("b", "w", root); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap := c.MetricsSnapshot()
	encoded := snap.CounterSum("wire.msgs.")
	if encoded == 0 {
		t.Fatal("no wire messages counted")
	}
	carried := snap.Counter("simnet.circuit.sent") + snap.Counter("simnet.datagram.sent") +
		snap.Counter("simnet.circuit.dropped") + snap.Counter("simnet.datagram.dropped")
	if encoded > carried {
		t.Errorf("wire counted %d encoded messages but simnet carried only %d frames",
			encoded, carried)
	}
	if got := snap.Counter("daemon.queries"); got == 0 {
		t.Error("pmd served no queries despite remote creation")
	}
	if got := snap.Counter("lpm.siblings.opened"); got == 0 {
		t.Error("no sibling circuits opened despite remote creation")
	}
}
