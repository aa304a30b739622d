package ppm_test

import (
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/scenario"
	"ppm/internal/status"
)

// statusCluster builds a small installation with a coordinator on the
// first host and a worker on every other host, plus enough control
// traffic to populate the per-op latency histograms — the same shape
// ppmtrace top scripts.
func statusCluster(t *testing.T, seed int64, hosts ...string) (*ppm.Cluster, *ppm.Session) {
	t.Helper()
	specs := make([]ppm.HostSpec, len(hosts))
	for i, h := range hosts {
		specs[i] = ppm.HostSpec{Name: h}
	}
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Seed:  seed,
		Hosts: specs,
		LPM:   ppm.LPMConfig{Retry: ppm.RetryPolicy{MaxAttempts: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("u")
	sess, err := c.Attach("u", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	root, err := sess.Run(hosts[0], "coordinator")
	if err != nil {
		t.Fatal(err)
	}
	var workers []ppm.GPID
	for _, h := range hosts[1:] {
		w, err := sess.RunChild(h, "worker-"+h, root)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if err := sess.Stop(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.ContinueAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	return c, sess
}

// TestStatusSweepDeterminism: two clusters fed the identical script must
// render byte-identical dashboards — the sweep introduces no
// nondeterminism (no map order, no wall clock, no floats).
func TestStatusSweepDeterminism(t *testing.T) {
	render := func() string {
		c, _ := statusCluster(t, 11, "a", "b", "c", "d")
		rep, err := c.StatusReport("u", "a")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Fatalf("same seed produced different dashboards:\n--- run1 ---\n%s\n--- run2 ---\n%s", r1, r2)
	}
}

// TestStatusSweepCoverage: a healthy sweep collects exactly one report
// per host, sorted, with the instrumented fields populated.
func TestStatusSweepCoverage(t *testing.T) {
	c, sess := statusCluster(t, 3, "a", "b", "c", "d")
	sw, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Unreachable) != 0 {
		t.Fatalf("healthy cluster has unreachable hosts: %v", sw.Unreachable)
	}
	if len(sw.Reports) != 4 {
		t.Fatalf("want 4 reports, got %d", len(sw.Reports))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		r := sw.Reports[i]
		if r.Host != want {
			t.Fatalf("report %d: host %q, want %q (sorted)", i, r.Host, want)
		}
		if r.ProcsTotal == 0 {
			t.Errorf("host %s: empty process table", r.Host)
		}
		if !r.DaemonUp || !r.NetUp {
			t.Errorf("host %s: daemon/net reported down: %+v", r.Host, r)
		}
	}
	// The origin ran the control traffic, so its per-op latency table
	// must be populated with percentile triples.
	origin := sw.Reports[0]
	if len(origin.OpLatencies) == 0 {
		t.Fatal("origin has no per-op latency percentiles")
	}
	for _, ol := range origin.OpLatencies {
		if ol.Count == 0 || ol.P50 <= 0 || ol.P95 < ol.P50 || ol.P99 < ol.P95 {
			t.Errorf("op %s: implausible percentiles %+v", ol.Op, ol)
		}
	}
	if vs := c.JournalAudit(); len(vs) > 0 {
		t.Fatalf("journal audit: %v", vs)
	}
}

// TestStatusSweepPartition: under a partition the sweep completes with
// partial results — exactly the far half listed unreachable — and after
// heal the next sweep covers every host again.
func TestStatusSweepPartition(t *testing.T) {
	c, sess := statusCluster(t, 5, "a", "b", "c", "d")
	if err := c.Partition([]string{"a", "b"}, []string{"c", "d"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	sw, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sw.Unreachable, ","); got != "c,d" {
		t.Fatalf("unreachable = %q, want %q", got, "c,d")
	}
	if len(sw.Reports) != 2 || sw.Reports[0].Host != "a" || sw.Reports[1].Host != "b" {
		t.Fatalf("partitioned sweep reports: %+v", sw.Reports)
	}
	c.Heal()
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	sw, err = sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Unreachable) != 0 || len(sw.Reports) != 4 {
		t.Fatalf("post-heal sweep: %d reports, unreachable %v", len(sw.Reports), sw.Unreachable)
	}
	if vs := c.JournalAudit(); len(vs) > 0 {
		t.Fatalf("journal audit: %v", vs)
	}
}

// TestStatusSweepCrash: a crashed host shows up in the unreachable list
// — never as a fabricated report — after one retry of the one request
// the sweep sends it (not a flood leg's retry and then a direct ask's),
// and the journal audit's status invariant stays clean across the crash.
func TestStatusSweepCrash(t *testing.T) {
	c, sess := statusCluster(t, 9, "a", "b", "c")
	if err := c.Crash("c"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	retries := c.MetricsSnapshot().Counter("lpm.request.retries")
	sw, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.MetricsSnapshot().Counter("lpm.request.retries") - retries; got != 1 {
		t.Errorf("the sweep retried %d requests, want the one to c, once", got)
	}
	if got := strings.Join(sw.Unreachable, ","); got != "c" {
		t.Fatalf("unreachable = %q, want %q", got, "c")
	}
	if len(sw.Reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(sw.Reports))
	}
	if vs := c.JournalAudit(); len(vs) > 0 {
		t.Fatalf("journal audit: %v", vs)
	}
}

// circuitTables reads every host's circuit table: peer and state of
// each circuit, in peer order.
func circuitTables(t *testing.T, c *ppm.Cluster, hosts []string) map[string]string {
	t.Helper()
	tables := map[string]string{}
	for _, h := range hosts {
		l, ok := c.ManagerOn(h, "u")
		if !ok {
			t.Fatalf("no LPM on %s", h)
		}
		var r status.Report
		l.BuildStatus(&r)
		var row []string
		for _, cs := range r.Circuits {
			row = append(row, cs.Peer+":"+cs.State)
		}
		tables[h] = strings.Join(row, " ")
	}
	return tables
}

// TestStatusSweepOpensNoCircuit: a sweep over a warm sparse graph — a
// 3-ary tree of eight hosts with one cross edge — floods it and leaves
// every host's circuit table as it was. A sweep that asked each host
// directly made its origin a hub with a circuit to every host.
func TestStatusSweepOpensNoCircuit(t *testing.T) {
	hosts := scenario.Numbered("h%d", 0, 8)
	c, err := scenario.New(ppm.ClusterConfig{Seed: 4, Hosts: scenario.Hosts(hosts...)}, "u")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := scenario.Tree(c, "u", hosts, [][2]int{{3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	before := circuitTables(t, c, hosts)
	for i := 0; i < 3; i++ {
		sw, err := sess.Status()
		if err != nil || len(sw.Reports) != len(hosts) || len(sw.Unreachable) != 0 {
			t.Fatalf("sweep %d: %d reports, unreachable %v, %v", i, len(sw.Reports), sw.Unreachable, err)
		}
	}
	after := circuitTables(t, c, hosts)
	for _, h := range hosts {
		if before[h] != after[h] {
			t.Errorf("%s's circuits went from [%s] to [%s]", h, before[h], after[h])
		}
	}
	if vs := c.JournalAudit(); len(vs) > 0 {
		t.Fatalf("journal audit: %v", vs)
	}
}

// TestStatusSweepAsksHostsWithoutLPM: a host the user has no LPM on is
// in no flood, so the sweep asks it directly — its pmd creates the LPM
// — and still reports every host of the installation.
func TestStatusSweepAsksHostsWithoutLPM(t *testing.T) {
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Seed: 2, Hosts: scenario.Hosts("a", "b", "c", "d")}, "u", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run("b", "w"); err != nil {
		t.Fatal(err)
	}
	asked := c.MetricsSnapshot().Counter("wire.msgs.StatusReq")
	sw, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Reports) != 4 || len(sw.Unreachable) != 0 {
		t.Fatalf("sweep: %d reports, unreachable %v; want all four hosts", len(sw.Reports), sw.Unreachable)
	}
	if got := c.MetricsSnapshot().Counter("wire.msgs.StatusReq") - asked; got != 2 {
		t.Errorf("%d direct status requests, want one each to c and d", got)
	}
	if vs := c.JournalAudit(); len(vs) > 0 {
		t.Fatalf("journal audit: %v", vs)
	}
}

// TestBuildStatusZeroAlloc: once warmed, assembling the local status
// report reuses the caller's buffers entirely — the hot path a periodic
// -watch sweep exercises must not allocate.
func TestBuildStatusZeroAlloc(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:     []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
		NoJournal: true,
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
	l, ok := c.ManagerOn("a", "u")
	if !ok {
		t.Fatal("no manager LPM on a")
	}
	var r status.Report
	l.BuildStatus(&r) // warm: grow the circuit and latency slices
	if allocs := testing.AllocsPerRun(100, func() { l.BuildStatus(&r) }); allocs != 0 {
		t.Fatalf("BuildStatus allocates %v times per run, want 0", allocs)
	}
}
