package lpm

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/auth"
	"ppm/internal/proc"
	"ppm/internal/simnet"
	"ppm/internal/wire"
)

// rawSibling establishes a legitimately authenticated circuit to the
// LPM on targetHost, originating from fromHost, and returns the raw
// conn plus a collector of reply envelopes — a harness for feeding the
// dispatcher arbitrary traffic.
func rawSibling(t *testing.T, w *world, u *auth.User, fromHost string,
	target *LPM) (*simnet.Conn, *[]wire.Envelope) {
	t.Helper()
	var conn *simnet.Conn
	replies := &[]wire.Envelope{}
	authed := false
	w.net.Dial(fromHost, target.Accept(), func(c *simnet.Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn = c
		c.SetHandler(func(b []byte) {
			env, derr := wire.DecodeEnvelopeBorrow(b)
			if derr != nil {
				return
			}
			if env.Type == wire.MsgHelloResp {
				authed = true
				return
			}
			env.Body = append([]byte(nil), env.Body...) // kept past the delivery buffer
			*replies = append(*replies, env)
		})
		hello := wire.Hello{
			User:     u.Name,
			FromHost: fromHost,
			Token:    auth.MintToken(u, "sibling"),
			Stamp:    u.Stamps.Mint(fromHost, w.sched.Now().Duration(), 99),
		}
		_ = c.Send(wire.Envelope{Type: wire.MsgHello, Body: wire.Encode(&hello)}.Encode())
	})
	w.until(func() bool { return authed })
	return conn, replies
}

func protoWorld(t *testing.T) (*world, *auth.User, *LPM) {
	t.Helper()
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	return w, u, l
}

// servedElsewhere names the ops that are not responses and that the
// sibling dispatcher nevertheless does not answer, each with where it
// is served and the test that covers it there.
var servedElsewhere = map[wire.MsgType]string{
	wire.MsgLPMQuery:    "served by pmd, not by an LPM: daemon's TestFigure2CreateThenFind",
	wire.MsgHello:       "served by the accept path, before a circuit exists: rawSibling's handshake, TestProtocolDuplicateHelloReplacesCircuit",
	wire.MsgCCSUpdate:   "one-way, never answered: TestProtocolCCSUpdateOneWay",
	wire.MsgKernelEvent: "an event pushed through the kernel's sink, not a request: TestProtocolStrayHandshakeResponsesDropped",
}

// Dispatch coverage, driven by the wire manifest: every op that is not
// a response, sent with an undecodable body over an authenticated
// circuit, is answered — and never by the dispatcher's "unhandled"
// fallback, which is what a manifest row with no serveRequest case
// gets. The dispatcher answers with a failure instead of dying.
func TestProtocolGarbagePayloadsAnsweredNotCrashed(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)

	sent := 0
	for op := wire.MsgType(1); int(op) < wire.NumOps; op++ {
		if why, exempt := servedElsewhere[op]; exempt {
			if op.IsResponse() || why == "" {
				t.Errorf("%v: stale or unexplained exemption %q", op, why)
			}
			continue
		}
		if op.IsResponse() {
			continue
		}
		_ = conn.Send(wire.Envelope{Type: op, ReqID: uint64(op), Body: []byte{0xff}}.Encode())
		sent++
	}
	w.run(5 * time.Second)
	if sent < 13 || len(*replies) != sent {
		t.Fatalf("sent %d garbage requests, got %d replies, want one each", sent, len(*replies))
	}
	answered := make(map[uint64]bool)
	for _, r := range *replies {
		op := wire.MsgType(r.ReqID)
		if answered[r.ReqID] {
			t.Errorf("%v answered twice", op)
		}
		answered[r.ReqID] = true
		var e wire.ErrorResp
		if r.Type == wire.MsgError && wire.Decode(r.Body, &e) == nil && strings.HasPrefix(e.Reason, "unhandled") {
			t.Errorf("%v is in the manifest but has no dispatch site: answered %q", op, e.Reason)
		}
	}
	// And the LPM still works.
	id := w.create(l, "vax1", "alive", proc.GPID{})
	if id.PID == 0 {
		t.Fatal("LPM broken after garbage")
	}
}

func TestProtocolWrongUserRequestRejected(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	victim := w.create(l, "vax1", "victim", proc.GPID{})

	// The circuit is felipe's, but the request claims another user.
	req := wire.Control{User: "mallory", Target: victim, Op: wire.OpKill}
	_ = conn.Send(wire.Envelope{Type: wire.MsgControl, ReqID: 7, Body: wire.Encode(&req)}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 {
		t.Fatalf("replies = %d", len(*replies))
	}
	var resp wire.ControlResp
	err := wire.Decode((*replies)[0].Body, &resp)
	if err != nil || resp.OK {
		t.Fatalf("wrong-user control accepted: %+v err=%v", resp, err)
	}
	p, _ := w.kerns["vax1"].Lookup(victim.PID)
	if p.State != proc.Running {
		t.Fatal("victim was harmed")
	}
}

// TestProtocolStrayHandshakeResponsesDropped: response-role ops are
// read off the wire manifest, so the two handshake replies no request
// on an established circuit can be waiting for are dropped like any
// unmatched response (the hand-kept list this replaced had missed them
// and answered MsgError).
func TestProtocolStrayHandshakeResponsesDropped(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	for _, mt := range []wire.MsgType{wire.MsgHelloResp, wire.MsgLPMQueryResp} {
		if !mt.IsResponse() {
			t.Fatalf("%v is not a response", mt)
		}
		_ = conn.Send(wire.Envelope{Type: mt, ReqID: 3}.Encode())
	}
	_ = conn.Send(wire.Envelope{Type: wire.MsgKernelEvent, ReqID: 4}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 || (*replies)[0].Type != wire.MsgError || (*replies)[0].ReqID != 4 {
		t.Fatalf("replies = %+v, want only the event op answered as unhandled", *replies)
	}
}

func TestProtocolUnknownTypeGetsError(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	_ = conn.Send(wire.Envelope{Type: wire.MsgType(999), ReqID: 3, Body: nil}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 || (*replies)[0].Type != wire.MsgError {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestProtocolUndecodableFrameIgnored(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	_ = conn.Send([]byte{0x01}) // not even an envelope
	w.run(2 * time.Second)
	if len(*replies) != 0 {
		t.Fatalf("garbage frame produced replies: %+v", replies)
	}
	// Circuit still alive afterwards.
	_ = conn.Send(wire.Envelope{Type: wire.MsgPing, ReqID: 9,
		Body: wire.Encode(&wire.Ping{FromHost: "vax2", User: u.Name})}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 || (*replies)[0].Type != wire.MsgPong {
		t.Fatalf("ping after garbage failed: %+v", replies)
	}
}

func TestProtocolForgedBroadcastStampRejected(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	inner := wire.Envelope{Type: wire.MsgSnapshotReq,
		Body: wire.Encode(&wire.SnapshotReq{User: u.Name})}
	bc := wire.Broadcast{
		Stamp: wire.NewSigner([]byte("not-the-user-key")).Mint("vax2", 0, 1),
		Seq:   1,
		Route: routeOf("vax2"),
		Inner: inner.Encode(),
	}
	_ = conn.Send(wire.Envelope{Type: wire.MsgBroadcast, ReqID: 5, Body: wire.Encode(&bc)}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 {
		t.Fatalf("replies = %d", len(*replies))
	}
	var resp wire.BroadcastResp
	err := wire.Decode((*replies)[0].Body, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var res wire.FloodResult
	err = wire.Decode(resp.Inner, &res)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("forged broadcast stamp accepted")
	}
}

func TestProtocolRelayPathExhausted(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	inner := wire.Envelope{Type: wire.MsgPing,
		Body: wire.Encode(&wire.Ping{FromHost: "vax2", User: u.Name})}
	rel := wire.Relay{User: u.Name, Dest: "elsewhere", Path: nil, Inner: inner.Encode()}
	_ = conn.Send(wire.Envelope{Type: wire.MsgRelay, ReqID: 4, Body: wire.Encode(&rel)}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 {
		t.Fatalf("replies = %d", len(*replies))
	}
	var resp wire.RelayResp
	err := wire.Decode((*replies)[0].Body, &resp)
	if err != nil || resp.OK {
		t.Fatalf("exhausted relay should fail: %+v err=%v", resp, err)
	}
}

func TestProtocolRelayNestedRelayRefused(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	nested := wire.Relay{User: u.Name, Dest: "vax1", Inner: []byte("x")}
	innerEnv := wire.Envelope{Type: wire.MsgRelay, Body: wire.Encode(&nested)}
	rel := wire.Relay{User: u.Name, Dest: "vax1", Inner: innerEnv.Encode()}
	_ = conn.Send(wire.Envelope{Type: wire.MsgRelay, ReqID: 4, Body: wire.Encode(&rel)}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 1 {
		t.Fatalf("replies = %d", len(*replies))
	}
	var resp wire.RelayResp
	err := wire.Decode((*replies)[0].Body, &resp)
	if err != nil || resp.OK {
		t.Fatalf("nested relay should be refused: %+v err=%v", resp, err)
	}
}

func TestProtocolDuplicateHelloReplacesCircuit(t *testing.T) {
	w, u, l := protoWorld(t)
	conn1, _ := rawSibling(t, w, u, "vax2", l)
	_ = conn1
	// A second authenticated circuit from the same host displaces the
	// first in the sibling table (the LPM keeps the newest).
	conn2, replies2 := rawSibling(t, w, u, "vax2", l)
	if len(l.SiblingHosts()) != 1 {
		t.Fatalf("siblings = %v", l.SiblingHosts())
	}
	_ = conn2.Send(wire.Envelope{Type: wire.MsgPing, ReqID: 1,
		Body: wire.Encode(&wire.Ping{FromHost: "vax2", User: u.Name})}.Encode())
	w.run(2 * time.Second)
	if len(*replies2) != 1 {
		t.Fatal("newest circuit not serving")
	}
}

func TestProtocolCCSUpdateOneWay(t *testing.T) {
	w, u, l := protoWorld(t)
	conn, replies := rawSibling(t, w, u, "vax2", l)
	upd := wire.CCSUpdate{CCSHost: "vax9"}
	_ = conn.Send(wire.Envelope{Type: wire.MsgCCSUpdate, ReqID: 8, Body: wire.Encode(&upd)}.Encode())
	w.run(2 * time.Second)
	if len(*replies) != 0 {
		t.Fatalf("CCSUpdate should be one-way, got %+v", replies)
	}
	if l.Recovery().CCS() != "vax9" {
		t.Fatalf("ccs = %q", l.Recovery().CCS())
	}
}
