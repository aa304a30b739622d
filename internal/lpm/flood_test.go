package lpm

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// TestFloodHopAllocs pins a warm interior hop of a snapshot flood —
// journal and metrics wired, tracer off — at a constant count: a
// Broadcast from vax0 comes in to vax1's LPM, which forwards it to its
// child vax2, splices vax2's echo into its own and answers. The request
// and the echo are read in place, the aggregate stays in wire form, and
// each hop's state — legs, route, forwarded body, lists, local fragment —
// is a recycled record, each arrival's body is borrowed from its LPM's
// arrival buffer, and each echo is encoded into a body the reply cache
// evicted, so what is left, over both LPMs and the test's own frames, is
// an echo the cache had none for, the sort of the records an LPM kept,
// and the test's request and reply.
func TestFloodHopAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops pooled records at random")
			}
		}
	}
	w := newWorld(t, Config{}, []string{"vax0", "vax1", "vax2"})
	installJournal(w)
	installMetrics(w)
	u := w.user("felipe", "vax0", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "warm", proc.GPID{})
	w.create(l, "vax2", "warm", proc.GPID{})
	w.run(time.Second)
	conn, replies := rawSibling(t, w, u, "vax0", l)

	inner := wire.Envelope{Type: wire.MsgSnapshotReq,
		Body: wire.Encode(&wire.SnapshotReq{User: u.Name, Forward: true})}.Encode()
	route := routeOf("vax0")
	var seq uint64
	hop := func() {
		seq++
		bc := wire.Broadcast{Stamp: u.Stamps.Mint("vax0", w.sched.Now().Duration(), seq), Seq: seq, Route: route, Inner: inner}
		*replies = (*replies)[:0]
		_ = conn.Send(wire.Envelope{Type: wire.MsgBroadcast, ReqID: seq, OpID: seq, Body: wire.Encode(&bc)}.Encode())
		for len(*replies) == 0 && w.sched.Step() {
		}
	}
	for i := 0; i < 1000; i++ {
		hop() // warm: the pools, the windows, the journal ring wrapped
	}
	var resp wire.BroadcastResp
	var res wire.FloodResult
	if err := wire.Decode((*replies)[0].Body, &resp); err != nil {
		t.Fatal(err)
	}
	if err := wire.Decode(resp.Inner, &res); err != nil || len(res.Hosts.Values(nil)) != 2 || len(res.Procs.Values(nil)) != 2 {
		t.Fatalf("echo covers hosts %v, procs %v (%v); want vax1's and vax2's", res.Hosts.Values(nil), res.Procs.Values(nil), err)
	}
	const budget = 5
	if got := testing.AllocsPerRun(200, hop); got > budget {
		t.Errorf("warm flood hop: %.1f allocs, budget %d", got, budget)
	}
}

// routeOf is a flood route that names one host.
func routeOf(host string) wire.List[string] {
	var route wire.List[string]
	route.Add(host)
	return route
}

// recordsAt counts the journal's records of kind k at host.
func recordsAt(j *journal.Journal, k journal.Kind, host string) int {
	return len(j.Select(journal.Filter{Kinds: []journal.Kind{k}, Host: host}))
}

// stepUntil runs the scheduler one event at a time until cond holds.
func (w *world) stepUntil(cond func() bool) {
	w.t.Helper()
	for !cond() {
		if !w.sched.Step() {
			w.t.Fatal("condition never satisfied (scheduler idle)")
		}
	}
}

// TestFloodLegRetransmittedAfterSiblingsEchoed: the origin vax1 floods a
// snapshot to vax2, vax3 and vax4. vax2's and vax3's echoes arrive;
// vax4's is lost, which severs its circuit, and the leg is retransmitted
// under its op id after a backoff — vax4 replays its cached echo. A
// second snapshot starts and finishes while that last leg is
// outstanding, taking records from the same pools. The first flood's
// record must stay its own until the last leg settles: both snapshots
// and the whole journal are those in testdata/flood_lost_leg.golden, also
// with every body the reply caches evict overwritten (wire.ScribbleEvicted).
func TestFloodLegRetransmittedAfterSiblingsEchoed(t *testing.T) {
	for _, scribble := range []bool{false, true} {
		func() {
			wire.ScribbleEvicted = scribble
			defer func() { wire.ScribbleEvicted = false }()
			floodLostLeg(t)
		}()
	}
}

func floodLostLeg(t *testing.T) {
	hosts := []string{"vax1", "vax2", "vax3", "vax4"}
	w := newWorld(t, Config{}, hosts)
	j := installJournal(w)
	u := w.user("felipe", hosts...)
	l := w.attach("vax1", u)
	for _, h := range hosts[1:] {
		w.create(l, h, "w-"+h, proc.GPID{})
	}
	w.run(time.Second)

	var out strings.Builder
	snaps := 0
	snapshot := func(which string) {
		l.Snapshot(func(s proc.Snapshot, err error) {
			fmt.Fprintf(&out, "%s snapshot, done at %v: err %v\n%s\n", which, s.TakenAt, err, s.Render())
			snaps++
		})
	}
	execs, retries := recordsAt(j, journal.LPMOpExec, "vax4"), recordsAt(j, journal.LPMRetry, "vax1")
	snapshot("first")
	w.stepUntil(func() bool { return recordsAt(j, journal.LPMOpExec, "vax4") > execs })
	w.net.InjectLossDir("vax4", "vax1", 1)
	w.stepUntil(func() bool { return recordsAt(j, journal.LPMRetry, "vax1") > retries })
	w.net.InjectLossDir("vax4", "vax1", 0)
	for _, pr := range l.pending {
		if pr.t == wire.MsgBroadcast {
			t.Fatalf("the leg to %s is still outstanding while vax4's backs off", pr.host)
		}
	}
	if snaps != 0 {
		t.Fatal("the first snapshot finished before its lost leg was retransmitted")
	}
	snapshot("second")
	w.until(func() bool { return snaps == 2 })
	w.run(time.Minute)
	if recordsAt(j, journal.LPMOpReplay, "vax4") == 0 {
		t.Fatal("vax4 never replayed its echo: the leg was not retransmitted")
	}

	got := out.String() + j.Render()
	want, err := os.ReadFile("testdata/flood_lost_leg.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("snapshots and journal differ from testdata/flood_lost_leg.golden; got:\n%s", got)
	}
}

// TestFloodEchoReplayIsFirstEcho: vax1's LPM serves a snapshot flood from
// vax0 as an interior hop, then forty more floods, which reuse its flood
// record and that record's buffers. A retransmission of the first flood's
// request under its op id is answered from the reply cache, and the
// replayed echo must be byte for byte the first one.
func TestFloodEchoReplayIsFirstEcho(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax0", "vax1", "vax2"})
	installJournal(w)
	u := w.user("felipe", "vax0", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "here", proc.GPID{})
	w.create(l, "vax2", "there", proc.GPID{})
	w.run(time.Second)
	conn, replies := rawSibling(t, w, u, "vax0", l)

	inner := wire.Envelope{Type: wire.MsgSnapshotReq,
		Body: wire.Encode(&wire.SnapshotReq{User: u.Name, Forward: true})}.Encode()
	flood := func(req, op uint64) []byte {
		bc := wire.Broadcast{Stamp: u.Stamps.Mint("vax0", w.sched.Now().Duration(), op), Seq: op, Route: routeOf("vax0"), Inner: inner}
		*replies = (*replies)[:0]
		_ = conn.Send(wire.Envelope{Type: wire.MsgBroadcast, ReqID: req, OpID: op, Body: wire.Encode(&bc)}.Encode())
		w.until(func() bool { return len(*replies) > 0 })
		return (*replies)[0].Body
	}
	first := flood(1, 1)
	for op := uint64(2); op <= 41; op++ {
		flood(op, op)
	}
	if replay := flood(42, 1); !bytes.Equal(replay, first) {
		t.Fatalf("replayed echo differs from the first:\n got %x\nwant %x", replay, first)
	}
}

// TestFloodRecordDroppedWithCrashedBoot: vax2 serves vax1's snapshot as
// an interior hop and forwards it to vax3, and its host crashes while
// its own share of the work still waits for the CPU. The dead boot's hop
// never applies and never echoes — not when vax2 comes back, not when
// its leg to vax3 settles — so its record is never finished and never
// returned. Later snapshots through the LPM on the restarted vax2 reach
// past it, each process once.
func TestFloodRecordDroppedWithCrashedBoot(t *testing.T) {
	hosts := []string{"vax1", "vax2", "vax3"}
	w := newWorld(t, Config{}, hosts)
	j := installJournal(w)
	u := w.user("felipe", hosts...)
	l1 := w.attach("vax1", u)
	w.create(l1, "vax2", "on-vax2", proc.GPID{})
	l2 := w.lpms["vax2/felipe"]
	w.create(l2, "vax3", "on-vax3", proc.GPID{})
	w.run(time.Second)

	forwards := func() int {
		n := 0
		for _, r := range j.Select(journal.Filter{Kinds: []journal.Kind{journal.WireEncode}, Host: "vax2"}) {
			if strings.HasPrefix(r.Detail, wire.MsgBroadcast.String()+" ") {
				n++
			}
		}
		return n
	}
	sent, applies, cached := forwards(), recordsAt(j, journal.LPMFloodApply, "vax2"), l2.replies.Len()
	done := false
	l1.Snapshot(func(proc.Snapshot, error) { done = true })
	w.stepUntil(func() bool { return forwards() > sent }) // the leg to vax3 is out, the local work queued behind it
	if recordsAt(j, journal.LPMFloodApply, "vax2") != applies {
		t.Fatal("vax2's flood work ran before its forward went out")
	}
	w.kerns["vax2"].Crash()
	w.kerns["vax2"].Restart()
	w.until(func() bool { return done })
	w.run(l2.cfg.opWindow()) // past every slot and retry the dead boot had
	if n := recordsAt(j, journal.LPMFloodApply, "vax2") - applies; n != 0 {
		t.Fatalf("the crashed boot's flood work ran %d times", n)
	}
	if n := l2.replies.Len() - cached; n > 0 {
		t.Fatalf("the crashed boot's hop echoed: %d replies cached", n)
	}

	for i := 0; i < 3; i++ {
		snap := w.snapshot(l1)
		if hs := snap.Hosts(); len(hs) != 2 || len(snap.Procs) != 2 || len(snap.Partial) != 0 {
			t.Fatalf("snapshot %d after the restart covers %v, partial %v, procs %v; want one process each on vax2 and vax3", i+1, hs, snap.Partial, snap.Procs)
		}
	}
}
