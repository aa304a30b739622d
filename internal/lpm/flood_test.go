package lpm

import (
	"runtime/debug"
	"testing"
	"time"

	"ppm/internal/proc"
	"ppm/internal/wire"
)

// TestFloodHopAllocs pins a warm interior hop of a snapshot flood —
// journal and metrics wired, tracer off — at a constant count: a
// Broadcast from vax0 comes in to vax1's LPM, which forwards it to its
// child vax2, splices vax2's echo into its own and answers. The request
// and the echo are read in place and the aggregate stays in wire form,
// so what is left, over both LPMs and the test's own frames, is the
// route, the forwarded body, each echo, the local fragments and the
// lists' growth, the per-flood state and closures, the envelope copies,
// and the at-most-once bookkeeping of two operations.
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
	route := wire.ListOf("vax0")
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
	if err := wire.Decode(resp.Inner, &res); err != nil || len(res.Hosts.Values()) != 2 || len(res.Procs.Values()) != 2 {
		t.Fatalf("echo covers hosts %v, procs %v (%v); want vax1's and vax2's", res.Hosts.Values(), res.Procs.Values(), err)
	}
	const budget = 31
	if got := testing.AllocsPerRun(200, hop); got > budget {
		t.Errorf("warm flood hop: %.1f allocs, budget %d", got, budget)
	}
}
