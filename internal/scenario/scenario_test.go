package scenario

import (
	"testing"
	"time"

	"ppm"
	"ppm/internal/journal"
)

// buildStar is the installation the tests share: six numbered hosts, a
// coordinator on the first and one worker on each of the others.
func buildStar(t *testing.T) (*ppm.Cluster, *ppm.Session, []ppm.GPID, []string) {
	t.Helper()
	names := Numbered("h%02d", 1, 6)
	c, sess, err := Attach(ppm.ClusterConfig{Seed: 7, Hosts: Hosts(names...)}, "u", names[0])
	if err != nil {
		t.Fatal(err)
	}
	workers, err := Star(sess, names, "coordinator", func(h string) string { return "worker-" + h })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	return c, sess, workers, names
}

// TestBuildsAreDeterministic: the builder adds no nondeterminism of its
// own — two builds from one config journal byte-identically.
func TestBuildsAreDeterministic(t *testing.T) {
	a, _, _, _ := buildStar(t)
	b, _, _, _ := buildStar(t)
	if a.Journal().Len() == 0 {
		t.Fatal("the build journaled nothing")
	}
	if d := journal.Diff(a.Journal(), b.Journal()); d != nil {
		t.Fatalf("two builds from one config diverge:\n%s", d.Format())
	}
}

// TestStarShape: one worker per non-home host, in host order, named by
// the caller, each the coordinator's logical child and alive in its own
// host's kernel.
func TestStarShape(t *testing.T) {
	c, sess, workers, names := buildStar(t)
	roots, err := sess.Locate("coordinator")
	if err != nil || len(roots) != 1 || roots[0].Host != names[0] {
		t.Fatalf("coordinators = %v, %v; want exactly one, on %s", roots, err, names[0])
	}
	root := roots[0]
	if len(workers) != len(names)-1 {
		t.Fatalf("%d workers for %d hosts, want one per non-home host", len(workers), len(names))
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ppm.GPID]ppm.Info{}
	for _, p := range snap.Procs {
		byID[p.ID] = p
	}
	for i, w := range workers {
		host := names[i+1]
		if w.Host != host {
			t.Errorf("worker %d runs on %s, want %s", i, w.Host, host)
		}
		info, ok := byID[w]
		if !ok {
			t.Errorf("worker %v is missing from the snapshot", w)
			continue
		}
		if info.Parent != root || info.Name != "worker-"+host {
			t.Errorf("worker %v: parent %v name %q, want parent %v name %q",
				w, info.Parent, info.Name, root, "worker-"+host)
		}
		k, err := c.Kernel(host)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := k.Lookup(w.PID); err != nil || p.State != ppm.Running {
			t.Errorf("worker %v is not running in %s's kernel: %+v, %v", w, host, p, err)
		}
	}
}

// TestMeasureMatchesCounters: Measure's message and byte counts are the
// wire.msgs./wire.bytes. counter deltas read directly around the same
// operation, and a purely local operation costs no wire message.
func TestMeasureMatchesCounters(t *testing.T) {
	c, sess, workers, names := buildStar(t)
	wire := func() (msgs, bytes uint64) {
		snap := c.MetricsSnapshot()
		return snap.CounterSum("wire.msgs."), snap.CounterSum("wire.bytes.")
	}
	msgs0, bytes0 := wire()
	cost, err := Measure(c, func() error { return sess.Stop(workers[0]) })
	if err != nil {
		t.Fatal(err)
	}
	msgs1, bytes1 := wire()
	if cost.Msgs != msgs1-msgs0 || cost.Bytes != bytes1-bytes0 {
		t.Errorf("remote stop: Measure says %d msgs / %d bytes, the counters moved %d / %d",
			cost.Msgs, cost.Bytes, msgs1-msgs0, bytes1-bytes0)
	}
	if cost.Msgs == 0 || cost.Elapsed <= 0 {
		t.Errorf("remote stop cost %d msgs in %v, want some of both", cost.Msgs, cost.Elapsed)
	}
	if got := cost.Delta("lpm.flood.forwarded"); got != 0 {
		t.Errorf("a point-to-point stop forwarded %d floods", got)
	}

	home, err := sess.Run(names[0], "local")
	if err != nil {
		t.Fatal(err)
	}
	local, err := Measure(c, func() error { return sess.Stop(home) })
	if err != nil {
		t.Fatal(err)
	}
	if local.Msgs != 0 || local.Bytes != 0 {
		t.Errorf("local stop cost %d msgs / %d bytes, want none", local.Msgs, local.Bytes)
	}
}

// TestTreeShape: a tree's circuits are exactly its parent-child edges
// plus the cross edges, and every process is its parent's child.
func TestTreeShape(t *testing.T) {
	names := Numbered("h%d", 0, 8)
	c, err := New(ppm.ClusterConfig{Seed: 7, Hosts: Hosts(names...)}, "u")
	if err != nil {
		t.Fatal(err)
	}
	sess, procs, err := Tree(c, "u", names, [][2]int{{3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]bool, len(names))
	for i := range want {
		want[i] = map[string]bool{}
	}
	link := func(a, b int) { want[a][names[b]], want[b][names[a]] = true, true }
	for pos := 1; pos < len(names); pos++ {
		link(pos, (pos-1)/3)
	}
	link(3, 5)
	for pos, h := range names {
		l, ok := c.ManagerOn(h, "u")
		if !ok {
			t.Fatalf("no LPM on %s", h)
		}
		var r ppm.HostStatus
		l.BuildStatus(&r)
		got := map[string]bool{}
		for _, cs := range r.Circuits {
			got[cs.Peer] = true
		}
		if len(got) != len(want[pos]) {
			t.Errorf("%s has circuits to %v, want %v", h, got, want[pos])
		}
		for p := range want[pos] {
			if !got[p] {
				t.Errorf("%s has circuits to %v, want %v", h, got, want[pos])
			}
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 1; pos < len(procs); pos++ {
		if info, ok := snap.Find(procs[pos]); !ok || info.Parent != procs[(pos-1)/3] {
			t.Errorf("process %d: %+v, want the child of %v", pos, info, procs[(pos-1)/3])
		}
	}
}
