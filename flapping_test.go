package ppm_test

import (
	"testing"
	"time"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/status"
	"ppm/internal/wire"
)

// flapRun drives a three-host computation while the home host's link
// to one worker flaps down and up on a fixed cadence, with the
// adaptive failure detector running on every circuit. User-visible
// operations must succeed across the flaps; the at-most-once layer
// must keep them single-execution.
func flapRun(t *testing.T, seed int64) *ppm.Cluster {
	t.Helper()
	cfg := ppm.ClusterConfig{
		Seed: seed,
		Hosts: []ppm.HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
		JournalCapacity: 1 << 18,
	}
	cfg.LPM.Linktest = 250 * time.Millisecond
	cfg.LPM.RequestTimeout = 500 * time.Millisecond
	cfg.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 6, BaseBackoff: 500 * time.Millisecond}
	c, err := ppm.NewCluster(cfg)
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
	wb, err := sess.RunChild("b", "wb", root)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sess.RunChild("c", "wc", root)
	if err != nil {
		t.Fatal(err)
	}

	// The a<->b link flaps: 2s up, 1.5s down, three cycles. Circuits
	// crossing a down window sever and must redial; each down window
	// is long enough to outlive a request timeout, so the retry engine
	// (not luck) carries the ops across.
	c.FlapLink("a", "b", 2*time.Second, 1500*time.Millisecond, 3)

	// Ops against the flapping host, issued while the flap schedule
	// runs: a stop early on and a kill straddling later cycles.
	if err := sess.Stop(wb); err != nil {
		t.Fatalf("stop across flapping link: %v", err)
	}
	if err := c.Advance(2200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.Kill(wb); err != nil {
		t.Fatalf("kill across flapping link: %v", err)
	}
	// The unaffected a<->c link keeps working throughout.
	if err := sess.Kill(wc); err != nil {
		t.Fatalf("kill on healthy link: %v", err)
	}
	if _, err := sess.Snapshot(); err != nil {
		t.Fatalf("snapshot during flaps: %v", err)
	}
	if err := c.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlappingLinkAtMostOnce: ops ride out a flapping link without
// double execution, no in-flight execution markers leak, the flap
// boundaries are journaled, and the full audit (circuit lifecycle
// included) is clean.
func TestFlappingLinkAtMostOnce(t *testing.T) {
	c := flapRun(t, 21)
	snap := c.MetricsSnapshot()
	if snap.Counter("simnet.flap.downs") != 3 || snap.Counter("simnet.flap.ups") != 3 {
		t.Fatalf("flap schedule ran %d down / %d up boundaries, want 3/3",
			snap.Counter("simnet.flap.downs"), snap.Counter("simnet.flap.ups"))
	}
	downs, ups := 0, 0
	for _, r := range c.Journal().Records() {
		switch r.Kind {
		case journal.NetFlapDown:
			downs++
			if r.Detail != "link=a|b" {
				t.Fatalf("flap record details %q, want link=a|b", r.Detail)
			}
		case journal.NetFlapUp:
			ups++
		}
	}
	if downs != 3 || ups != 3 {
		t.Fatalf("journal has %d flap-down / %d flap-up records, want 3/3", downs, ups)
	}
	// Quiesced: nothing in flight anywhere, no leaked execution
	// markers on either side of the flapping link.
	for _, host := range []string{"a", "b", "c"} {
		l, ok := c.ManagerOn(host, "u")
		if !ok {
			continue
		}
		var r status.Report
		l.BuildStatus(&r)
		if r.InflightOps != 0 {
			t.Fatalf("%s leaked %d in-flight op markers after quiesce", host, r.InflightOps)
		}
		if r.PendingReqs != 0 {
			t.Fatalf("%s still has %d pending requests after quiesce", host, r.PendingReqs)
		}
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("audit violations under flapping link:\n%s", journal.AuditReport(vs))
	}
}

// TestFlappingLinkDeterministic: the flap schedule, detector ticks and
// retry timers all run on the virtual clock, so two same-seed flapping
// runs must produce byte-identical journals.
func TestFlappingLinkDeterministic(t *testing.T) {
	a := flapRun(t, 77)
	b := flapRun(t, 77)
	if d := journal.Diff(a.Journal(), b.Journal()); d != nil {
		t.Fatalf("same seed diverged under flapping:\n%s", d.Format())
	}
	if a.Journal().Len() == 0 {
		t.Fatal("flapping scenario produced an empty journal")
	}
}

// TestFlappingLinkEvictedRepliesOwned: a flapping run writes the same
// journal when every body a reply cache evicts is overwritten first
// (wire.ScribbleEvicted): nothing reads a cached reply once the cache has
// given its body back for reuse.
func TestFlappingLinkEvictedRepliesOwned(t *testing.T) {
	a := flapRun(t, 21)
	wire.ScribbleEvicted = true
	defer func() { wire.ScribbleEvicted = false }()
	if d := journal.Diff(a.Journal(), flapRun(t, 21).Journal()); d != nil {
		t.Fatalf("overwriting evicted reply bodies changed the flapping run:\n%s", d.Format())
	}
}

// TestThreeWayPartitionCCSMerge: a three-way partition elects an
// acting CCS in every fragment (each host finds itself first reachable
// on the recovery list); after the heal the duplicate coordinators
// must merge back to the single list-preferred CCS, circuits re-knit,
// and the journal audits clean — including every circuit lifecycle
// crossed by the partition.
func TestThreeWayPartitionCCSMerge(t *testing.T) {
	cfg := ppm.ClusterConfig{
		Seed: 5,
		Hosts: []ppm.HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
		JournalCapacity: 1 << 18,
	}
	cfg.LPM.Linktest = 250 * time.Millisecond
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	c.SetRecoveryList("u", "a", "b", "c")
	sess, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run("b", "jb"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run("c", "jc"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}

	// Shatter: every host alone. b and c each walk the list, find the
	// higher-priority hosts unreachable and themselves next: three
	// concurrent coordinators.
	if err := c.Partition([]string{"a"}, []string{"b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	acting := 0
	for _, host := range []string{"a", "b", "c"} {
		if l, ok := c.ManagerOn(host, "u"); ok && l.Recovery().IsCCS() {
			acting++
		}
	}
	if acting < 2 {
		t.Fatalf("partition produced %d acting CCSs, want concurrent coordinators", acting)
	}

	// Heal. The acting coordinators' higher-priority probes find a
	// again and demote; the installation converges on one CCS.
	c.Heal()
	if err := c.Advance(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	acting = 0
	for _, host := range []string{"a", "b", "c"} {
		l, ok := c.ManagerOn(host, "u")
		if !ok {
			t.Fatalf("%s's LPM gone after heal", host)
		}
		if l.Recovery().IsCCS() {
			acting++
		}
		if got := l.Recovery().CCS(); got != "a" {
			t.Fatalf("%s believes the CCS is %q, want a", host, got)
		}
	}
	if acting != 1 {
		t.Fatalf("%d acting CCSs after heal, want exactly 1", acting)
	}
	// The merged installation still does real work end to end.
	if _, err := sess.Run("c", "post-merge"); err != nil {
		t.Fatalf("post-merge create: %v", err)
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("audit violations across three-way partition:\n%s", journal.AuditReport(vs))
	}
}
