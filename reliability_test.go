package ppm_test

import (
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/journal"
)

// faultyRun drives a three-host computation under injected network
// faults: every Nth eligible transmission is lost (circuit sends sever
// the circuit, datagrams vanish silently), and a partition separates
// the home host mid-kill until a scheduled heal. Every user-visible
// operation must still succeed — the reliability layer retries,
// redials and dedups underneath.
func faultyRun(t *testing.T, seed int64) *ppm.Cluster {
	t.Helper()
	cfg := ppm.ClusterConfig{
		Seed: seed,
		Hosts: []ppm.HostSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c", Type: ppm.SunII},
		},
		JournalCapacity: 1 << 18,
	}
	cfg.LPM.RequestTimeout = 500 * time.Millisecond
	cfg.LPM.Retry = ppm.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Second}
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

	// Faults on: snapshots and controls now ride a lossy network.
	c.InjectLoss(7)
	if _, err := sess.Snapshot(); err != nil {
		t.Fatalf("snapshot under loss: %v", err)
	}
	if err := sess.Stop(wc); err != nil {
		t.Fatalf("stop under loss: %v", err)
	}

	// Partition the home host away and heal two virtual seconds later,
	// while the kill is mid-retry: the first attempts time out, the
	// post-heal attempt redials the sibling and lands exactly once.
	if err := c.Partition([]string{"a"}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	c.Scheduler().After(2*time.Second, c.Heal)
	if err := sess.Kill(wb); err != nil {
		t.Fatalf("kill across partition heal: %v", err)
	}

	c.InjectLoss(0)
	if err := c.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReliabilityUnderInjectedFaults: operations succeed despite
// injected loss and a partition, the retry machinery demonstrably ran,
// and the journal auditor confirms no operation executed twice.
func TestReliabilityUnderInjectedFaults(t *testing.T) {
	c := faultyRun(t, 7)
	snap := c.MetricsSnapshot()
	if snap.Counter("simnet.injected.losses") == 0 {
		t.Fatal("fault injection never fired; the scenario tests nothing")
	}
	if snap.Counter("lpm.request.retries") == 0 {
		t.Fatal("no request was ever retried")
	}
	if snap.Counter("lpm.request.redials") == 0 {
		t.Fatal("no sibling circuit was ever redialed")
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("audit violations under faults:\n%s", journal.AuditReport(vs))
	}
}

// TestRestartDoesNotReplayStaleOps: a restarted home host gets a fresh
// LPM whose operation numbering starts over. Its peers must not answer
// the new ops from reply-cache entries left by the previous
// incarnation — the op identity carries the incarnation exchanged at
// hello time, so a stale "op 1" entry can never satisfy the fresh
// LPM's op 1.
func TestRestartDoesNotReplayStaleOps(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed:  11,
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
	// Op 1 of the first incarnation lands in b's reply cache.
	if _, err := sess.Run("b", "first"); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("a"); err != nil {
		t.Fatal(err)
	}
	sess2, err := c.Attach("u", "a")
	if err != nil {
		t.Fatal(err)
	}
	// The fresh LPM re-issues op 1. Without incarnation scoping b would
	// replay the cached "first" ack and never fork this process.
	if _, err := sess2.Run("b", "second"); err != nil {
		t.Fatal(err)
	}
	procs, err := c.Processes("b", "u")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, p := range procs {
		if p.Name == "second" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("post-restart create executed %d times, want 1 (stale cache replay?)", count)
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("audit violations across restart:\n%s", journal.AuditReport(vs))
	}
}

// TestMultiUserOpsAuditCleanly: two users' LPMs on one host number
// their operations independently, so both issue an "op 1" against the
// same peer. The auditor (and the peer's dedup filter) must treat them
// as distinct operations, not flag a double execution.
func TestMultiUserOpsAuditCleanly(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed:  13,
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u1")
	c.AddUser("u2")
	s1, err := c.Attach("u1", "a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Attach("u2", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run("b", "j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run("b", "j2"); err != nil {
		t.Fatal(err)
	}
	for user, name := range map[string]string{"u1": "j1", "u2": "j2"} {
		procs, err := c.Processes("b", user)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range procs {
			found = found || p.Name == name
		}
		if !found {
			t.Fatalf("%s's create never executed on b", user)
		}
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("independent users' ops flagged as duplicates:\n%s", journal.AuditReport(vs))
	}
}

// TestFaultyJournalDeterministicReplay: injected loss and retry
// scheduling run entirely on the virtual clock and the seeded stream,
// so two same-seed faulty runs must produce byte-identical journals.
func TestFaultyJournalDeterministicReplay(t *testing.T) {
	a := faultyRun(t, 42)
	b := faultyRun(t, 42)
	if d := journal.Diff(a.Journal(), b.Journal()); d != nil {
		t.Fatalf("same seed diverged under faults:\n%s", d.Format())
	}
	if a.Journal().Render() != b.Journal().Render() {
		t.Fatal("journal renders differ although Diff found no divergence")
	}
	if a.Journal().Len() == 0 {
		t.Fatal("faulty scenario produced an empty journal")
	}
}

// TestCrashedHostsLPMStopsRedialling: b's LPM is redialling c, which
// crashed, when b crashes too. While b is down and after it restarts,
// across several RetryEvery, the LPM of b's first boot must journal
// nothing: c comes back, b's new LPM dials it, and every
// circuit.transition at b for c from b's crash on is the new LPM's —
// none while b is down, and the journal audits clean.
func TestCrashedHostsLPMStopsRedialling(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed:  7,
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	home, err := c.Attach("u", "a")
	must(err)
	_, err = home.Run("b", "wb")
	must(err)
	atB, err := c.Attach("u", "b")
	must(err)
	_, err = atB.Run("c", "wc")
	must(err)
	must(c.Crash("c"))
	must(c.Advance(15 * time.Second)) // b's LPM has lost c and redials it every 10 s
	must(c.Crash("b"))
	crashed := c.Now().Duration()
	must(c.Advance(time.Minute))
	must(c.Restart("b"))
	restarted := c.Now().Duration()
	must(c.Restart("c"))
	must(c.Advance(time.Minute))
	atB, err = c.Attach("u", "b")
	must(err)
	_, err = atB.Run("c", "wc2")
	must(err)
	must(c.Advance(2 * time.Minute))
	for _, r := range c.Journal().Select(ppm.JournalFilter{Kinds: []journal.Kind{journal.CircuitTransition}, Host: "b", Since: crashed}) {
		if strings.Contains(r.Detail, " peer=c ") && r.At <= restarted {
			t.Errorf("b's crashed LPM journaled while b was down: %s", r)
		}
	}
	auditClean(t, c)
}
