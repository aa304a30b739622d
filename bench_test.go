package ppm_test

import (
	"runtime/debug"
	"testing"
	"time"

	"ppm"
	"ppm/internal/experiments"
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

// snapshotOverStar builds an n-host star (h00 the home; one worker "w"
// per other host, under a coordinator when rooted) and measures one
// snapshot flood over it.
func snapshotOverStar(tb testing.TB, n int, rooted bool) scenario.Cost {
	tb.Helper()
	names := scenario.Numbered("h%02d", 0, n)
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "u", "h00")
	if err != nil {
		tb.Fatal(err)
	}
	if rooted {
		_, err = scenario.Star(sess, names, "root", scenario.Named("w"))
	} else {
		_, err = scenario.Workers(sess, names, ppm.GPID{}, scenario.Named("w"))
	}
	if err != nil {
		tb.Fatal(err)
	}
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
// sibling circuit — 2(n-1) wire messages, no more; recovery from a CCS
// crash must stay within a small constant bill. A regression that
// multiplies traffic (re-floods, lost dedup, chatty recovery) fails
// here even if latencies stay plausible.
func TestMessageBudgets(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		want := uint64(2 * (n - 1))
		if got := snapshotOverStar(t, n, false).Msgs; got != want {
			t.Errorf("snapshot over %d-host star: %d wire messages, budget is exactly %d",
				n, got, want)
		}
	}

	rec, err := experiments.RunRecoveryCost()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Msgs == 0 {
		t.Error("recovery produced no wire messages")
	}
	// Measured bill is 7 messages / 304 bytes; leave headroom for
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

// warmRemoteControlAllocs is the allocation budget of one warm remote
// Session.Stop, journal and metrics wired, tracer off: the count
// measured when wait took over the caller's half of every operation.
// A helper that makes Control's request or response escape (an
// interface-typed request, a response handed back through a type
// parameter, a result captured as separate variables) lands here before
// it lands in a ppmload run.
const warmRemoteControlAllocs = 35

func TestWarmRemoteControlAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation changes what the compiler inlines, and so what escapes")
			}
		}
	}
	_, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts("a", "b")}, "u", "a")
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Run("b", "job")
	if err != nil {
		t.Fatal(err)
	}
	stop := func() {
		if err := sess.Stop(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		stop() // warm the circuit, the handler pool and the journal ring
	}
	if got := testing.AllocsPerRun(200, stop); got > warmRemoteControlAllocs {
		t.Errorf("warm remote Session.Stop: %.1f allocs, budget %d", got, warmRemoteControlAllocs)
	}
}
