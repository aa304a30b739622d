package ppm_test

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"ppm"
	"ppm/internal/experiments"
	"ppm/internal/journal"
	"ppm/internal/scenario"
)

// The benchmarks that size the simulator itself — event throughput,
// the tens-of-nodes scale claim, the flight recorder's overhead — and
// the message budgets of the core operations. One benchmark per table,
// figure and ablation of the paper's evaluation lives with the harness,
// in internal/experiments.

// BenchmarkSimulatorThroughput measures raw events/second of the
// discrete-event core under a PPM workload, to size larger experiments.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts("a", "b")}, "u", "a")
		if err != nil {
			b.Fatal(err)
		}
		id, err := sess.Run("b", "job")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			if err := sess.Stop(id); err != nil {
				b.Fatal(err)
			}
			if err := sess.Foreground(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// star builds a star over the named hosts: the first is the home, every
// other host runs one worker "w", under a coordinator on the home when
// rooted. Creating the workers opens every sibling circuit.
func star(tb testing.TB, names []string, rooted bool) (*ppm.Cluster, *ppm.Session, []ppm.GPID) {
	tb.Helper()
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "u", names[0])
	if err != nil {
		tb.Fatal(err)
	}
	var workers []ppm.GPID
	if rooted {
		workers, err = scenario.Star(sess, names, "root", scenario.Named("w"))
	} else {
		workers, err = scenario.Workers(sess, names, ppm.GPID{}, scenario.Named("w"))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return c, sess, workers
}

// tree builds a 3-ary tree of circuits over the named hosts with the
// given cross edges (scenario.Tree), warmed by a snapshot and a sweep:
// the sparse graph of the paper's §4.
func tree(tb testing.TB, names []string, cross ...[2]int) (*ppm.Cluster, *ppm.Session) {
	tb.Helper()
	c, err := scenario.New(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "u")
	if err != nil {
		tb.Fatal(err)
	}
	sess, _, err := scenario.Tree(c, "u", names, cross)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Status(); err != nil {
		tb.Fatal(err)
	}
	return c, sess
}

// snapshotOverStar measures one snapshot flood over a fresh star.
func snapshotOverStar(tb testing.TB, n int, rooted bool) scenario.Cost {
	tb.Helper()
	c, sess, _ := star(tb, scenario.Numbered("h%02d", 0, n), rooted)
	cost, err := scenario.Measure(c, func() error {
		_, serr := sess.Snapshot()
		return serr
	})
	if err != nil {
		tb.Fatal(err)
	}
	return cost
}

// BenchmarkScaleTensOfNodes stress-tests the paper's scalability claim:
// a 24-host snapshot plus broadcast control, reporting virtual-time
// latency.
func BenchmarkScaleTensOfNodes(b *testing.B) {
	var cost scenario.Cost
	for i := 0; i < b.N; i++ {
		cost = snapshotOverStar(b, 24, true)
	}
	b.ReportMetric(cost.MS(), "vms/24-host-snapshot")
	b.ReportMetric(float64(cost.Msgs), "msgs/24-host-snapshot")
}

// BenchmarkSnapshotFanout sweeps snapshot cost versus the number of
// hosts on a star circuit graph, sizing the scalability claim.
func BenchmarkSnapshotFanout(b *testing.B) {
	var v3, v6, v12 float64
	for i := 0; i < b.N; i++ {
		v3 = snapshotOverStar(b, 3, false).MS()
		v6 = snapshotOverStar(b, 6, false).MS()
		v12 = snapshotOverStar(b, 12, false).MS()
	}
	b.ReportMetric(v3, "vms/3-hosts")
	b.ReportMetric(v6, "vms/6-hosts")
	b.ReportMetric(v12, "vms/12-hosts")
}

// TestMessageBudgets pins the message economy of the core operations.
// A snapshot flood over an n-host star is one request and one reply per
// sibling circuit — 2(n-1) wire messages, no more — and so is a status
// sweep, a flood too; a warm remote control is one request and one
// reply; recovery from a CCS crash must stay within a small constant
// bill. On a sparse graph, a warm 3-ary tree of eight hosts with one
// cross edge, a sweep is one request and one echo per circuit each way
// it is crossed, and opens no circuit. A regression that multiplies
// traffic (re-floods, lost dedup, a sweep that dials every host, chatty
// recovery) fails here even if latencies stay plausible.
func TestMessageBudgets(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		c, sess, workers := star(t, scenario.Numbered("h%02d", 0, n), false)
		perCircuit := uint64(2 * (n - 1))
		for _, row := range []struct {
			name string
			want uint64
			op   func() error
		}{
			{"snapshot", perCircuit, func() error { _, err := sess.Snapshot(); return err }},
			{"status sweep", perCircuit, func() error { _, err := sess.Status(); return err }},
			{"warm remote stop", 2, func() error { return sess.Stop(workers[0]) }},
		} {
			cost, err := scenario.Measure(c, row.op)
			if err != nil {
				t.Fatal(err)
			}
			if cost.Msgs != row.want {
				t.Errorf("%s over %d-host star: %d wire messages, budget is exactly %d",
					row.name, n, cost.Msgs, row.want)
			}
		}
	}

	c, sess := tree(t, scenario.Numbered("h%d", 0, 8), [2]int{3, 5})
	cost, err := scenario.Measure(c, func() error { _, err := sess.Status(); return err })
	if err != nil {
		t.Fatal(err)
	}
	if cost.Msgs != 18 || cost.Delta("lpm.siblings.opened") != 0 {
		t.Errorf("status sweep over a warm 8-host tree with a cross edge: %d wire messages and %d circuits opened, budget is exactly 18 and none",
			cost.Msgs, cost.Delta("lpm.siblings.opened"))
	}

	rec, err := experiments.RunRecoveryCost()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Msgs == 0 {
		t.Error("recovery produced no wire messages")
	}
	// Measured bill is 7 messages / 320 bytes; leave headroom for
	// benign protocol changes but catch order-of-magnitude regressions.
	if rec.Msgs > 20 {
		t.Errorf("recovery cost %d wire messages, budget is 20", rec.Msgs)
	}
	if rec.Bytes > 1000 {
		t.Errorf("recovery cost %d wire bytes, budget is 1000", rec.Bytes)
	}
}

// BenchmarkJournalOverhead measures the real (wall-clock) cost the
// flight recorder adds to a representative two-host scenario: the same
// script run with the journal on (the default) and off (NoJournal), so
// the delta between the sub-benchmarks is the append overhead.
func BenchmarkJournalOverhead(b *testing.B) {
	scenarioRun := func(noJournal bool) error {
		c, sess, err := scenario.Attach(ppm.ClusterConfig{
			Hosts:     scenario.Hosts("a", "b"),
			NoJournal: noJournal,
		}, "u", "a")
		if err != nil {
			return err
		}
		root, err := sess.Run("a", "root")
		if err != nil {
			return err
		}
		w, err := sess.RunChild("b", "w", root)
		if err != nil {
			return err
		}
		if _, err := sess.Snapshot(); err != nil {
			return err
		}
		if err := sess.Stop(w); err != nil {
			return err
		}
		return c.Advance(time.Second)
	}
	b.Run("journal=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scenarioRun(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journal=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scenarioRun(true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmOperationAllocs holds the allocation count of the three warm
// operations a run is made of, journal and metrics wired, tracer off,
// each over the rooted star of its size. The budgets are the counts
// measured on this tree. A helper that makes Control's request or
// response escape (an interface-typed request, a response handed back
// through a type parameter, a result captured as separate variables), or
// a format call on the flood or sweep reply path, lands here before it
// lands in a ppmload run.
func TestWarmOperationAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation changes what the compiler inlines, and so what escapes")
			}
		}
	}
	h8 := scenario.Numbered("h%d", 0, 8)
	for _, row := range []struct {
		name   string
		hosts  []string
		budget float64
		op     func(sess *ppm.Session, workers []ppm.GPID) error
	}{
		{"remote Session.Stop", []string{"a", "b"}, 12, func(sess *ppm.Session, workers []ppm.GPID) error {
			return sess.Stop(workers[0])
		}},
		{"Session.Snapshot", h8, 40, func(sess *ppm.Session, _ []ppm.GPID) error {
			_, err := sess.Snapshot()
			return err
		}},
		{"Session.Status", h8, 45, func(sess *ppm.Session, _ []ppm.GPID) error {
			sw, err := sess.Status()
			if err == nil && (len(sw.Reports) != 8 || len(sw.Unreachable) != 0) {
				err = fmt.Errorf("sweep covered %d/8 hosts, unreachable %v", len(sw.Reports), sw.Unreachable)
			}
			return err
		}},
	} {
		_, sess, workers := star(t, row.hosts, true)
		run := func() {
			if err := row.op(sess, workers); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			run() // the counts drift by ±1 % until the journal ring has wrapped
		}
		if got := testing.AllocsPerRun(200, run); got > row.budget {
			t.Errorf("warm %s over %d hosts: %.0f allocs, budget %.0f", row.name, len(row.hosts), got, row.budget)
		}
	}
}

// TestAuditAllocs holds Cluster.JournalAudit on one fixed installation —
// an 8-host rooted star that snapshots, sweeps, stops a worker, loses a
// host and gets it back — to the count measured once the audit read the
// ring's entries instead of rendered copies of every record. A check
// that renders a detail, tokenizes one, or keys a map by concatenation
// lands here first.
func TestAuditAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation changes what the compiler inlines, and so what escapes")
			}
		}
	}
	c, sess, workers := star(t, scenario.Numbered("h%d", 0, 8), true)
	if _, err := sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Status(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Stop(workers[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash("h3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("h3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("the installation audits dirty:\n%s", journal.AuditReport(vs))
	}
	const budget = 213 // 201 measured on go1.24 since the audit reads typed slots keyed by structs (328 while it parsed key=value text, 1,678 while it rendered every record); the rest is headroom for map growth
	records := c.Journal().Len()
	got := testing.AllocsPerRun(20, func() { c.JournalAudit() })
	if got > budget {
		t.Errorf("auditing %d records: %.0f allocs, budget %d", records, got, budget)
	}
	// The tracer is off, so its table is empty and the trace half of the
	// audit allocates nothing (one map while it keyed span IDs in one).
	if journalOnly := testing.AllocsPerRun(20, func() { journal.Audit(c.Journal()) }); got != journalOnly {
		t.Errorf("with the tracer off the audit allocates %.0f times, the journal's alone %.0f", got, journalOnly)
	}
}
