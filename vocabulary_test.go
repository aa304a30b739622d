package ppm_test

import (
	"testing"
	"time"

	"ppm"
	"ppm/internal/auth"
	"ppm/internal/daemon"
	"ppm/internal/journal"
	"ppm/internal/lpm"
	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// errandsRun is the scenario for what the fault scenarios never ask
// for: the read-only queries, a remote watch, a status sweep that asks
// a host with no LPM yet directly (d), a relayed
// control over a learned route, a flood over a cyclic circuit graph, a
// reply lost after its operation executed, a tool socket, a pmd query
// the account database refuses, and a host restart.
func errandsRun(t *testing.T) *ppm.Cluster {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:           []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
		JournalCapacity: 1 << 18,
		LPM:             lpm.Config{UseRelay: true, Retry: ppm.RetryPolicy{MaxAttempts: 5}},
	})
	must(err)
	c.AddUser("u")
	sess, err := c.Attach("u", "a")
	must(err)

	// Chain circuits a-b, b-c; a learns the route to c from a snapshot,
	// so its stop of pc is relayed through b.
	pb, err := sess.Run("b", "pb")
	must(err)
	sb, err := sess.AttachAt("b")
	must(err)
	pc, err := sb.Run("c", "pc")
	must(err)
	must(c.Advance(time.Second))
	_, err = sess.Snapshot()
	must(err)
	must(sess.Stop(pc))

	_, err = sess.Stats(pb)
	must(err)
	_, err = sess.OpenFiles(pb)
	must(err)
	_, err = sess.HistoryOn("b", ppm.HistoryQuery{})
	must(err)
	_, err = sess.OnEventAt("b", &ppm.Watch{Kind: proc.EvExit, Proc: pb}, ppm.OpKill, 0, pc)
	must(err)
	_, err = sess.Status()
	must(err)
	pinged := false
	sess.Manager().Ping("b", func(_ wire.Pong, err error) { must(err); pinged = true })

	// c dials a directly, closing the cycle a-b-c-a: the next flood
	// reaches somebody twice.
	sc, err := sess.AttachAt("c")
	must(err)
	_, err = sc.Run("a", "pa")
	must(err)
	_, err = sess.Snapshot()
	must(err)

	// b's first reply to a is lost: the control executes once and its
	// retransmission is answered from b's reply cache.
	c.InjectLossDir("b", "a", 1)
	c.Scheduler().After(300*time.Millisecond, func() { c.InjectLossDir("b", "a", 0) })
	must(sess.Background(pb))

	// Accounts derive their keys from the name, so a directory of our
	// own yields u's genuine credentials for a tool socket — and, for a
	// name the installation never registered, a query its pmd refuses.
	outside := auth.NewDirectory()
	refused, snapped := false, false
	daemon.QueryLPM(c.Network(), "a", "b", outside.AddUser("mallory"), trace.Context{}, func(r wire.LPMQueryResp, err error) {
		refused = err != nil || !r.OK
	})
	lpm.ConnectTool(c.Network(), outside.AddUser("u"), "a", func(tc *lpm.ToolClient, err error) {
		must(err)
		tc.Snapshot(func(_ proc.Snapshot, err error) {
			must(err)
			snapped = true
			tc.Close()
		})
	})
	must(c.Advance(5 * time.Second))
	if !pinged || !refused || !snapped {
		t.Fatalf("errands left undone: pinged=%v refused=%v snapped=%v", pinged, refused, snapped)
	}

	must(c.Crash("c"))
	must(c.Advance(time.Second))
	must(c.Restart("c"))
	must(c.Advance(time.Minute))
	return c
}

// Vocabulary coverage: the type system closes journal.Kind and
// wire.MsgType, and this holds every member to being used — not
// referenced somewhere, but happening: across the fault scenarios and
// errandsRun every record kind is journaled at least once and every op
// is framed at least once. A member that cannot happen in a public-API
// scenario is exempt only with the reason, and the test that covers it.
func TestVocabularyHappens(t *testing.T) {
	unframed := map[wire.MsgType]string{
		wire.MsgKernelEvent: "the 112-byte kernel event reaches the LPM through the kernel's sink as a value, never as a frame: wire's TestKernelEventIsExactly112Bytes pins its layout",
		wire.MsgError:       "answers only a protocol violation, which no well-formed client commits: lpm's TestProtocolUnknownTypeGetsError",
	}
	unrecorded := map[journal.Kind]string{} // none today: every kind happens

	// The fault scenarios' own tests audit them; errandsRun is held to
	// being protocol-legal here.
	errands := errandsRun(t)
	if vs := errands.JournalAudit(); len(vs) != 0 {
		t.Fatalf("errandsRun audit violations:\n%s", journal.AuditReport(vs))
	}

	var records [journal.NumKinds]int
	var frames [wire.NumOps]uint64
	for _, c := range []*ppm.Cluster{soakRun(t), journalScenario(t, 7), faultyRun(t, 7), flapRun(t, 7), errands} {
		for _, r := range c.Journal().Records() {
			records[r.Kind]++
		}
		snap := c.MetricsSnapshot()
		for op := wire.MsgType(1); int(op) < wire.NumOps; op++ {
			frames[op] += snap.Counter("wire.msgs." + op.String())
		}
	}
	for _, k := range journal.Kinds() {
		if why, exempt := unrecorded[k]; exempt != (records[k] == 0) || exempt && why == "" {
			t.Errorf("kind %v: %d records, exemption %q", k, records[k], why)
		}
	}
	for op := wire.MsgType(1); int(op) < wire.NumOps; op++ {
		if why, exempt := unframed[op]; exempt != (frames[op] == 0) || exempt && why == "" {
			t.Errorf("op %v: %d frames, exemption %q", op, frames[op], why)
		}
	}
}
