package lpm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ppm/internal/auth"
	"ppm/internal/daemon"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// Frames cross one way in each direction (DESIGN.md §10): wire.Send
// out, wire.DecodeEnvelopeLogged in. The decode borrows the delivery
// buffer simnet recycles as soon as the handler returns, so the
// handlers that keep an envelope past the call copy its body.

// frameOf encodes m as the body of a frame of type t.
func frameOf(t wire.MsgType, reqID uint64, m wire.Message) []byte {
	return wire.Envelope{Type: t, ReqID: reqID, Body: wire.Encode(m)}.Encode()
}

// render is a reply frame as its type, request id and body decoded into m.
func render(b []byte, m wire.Message) string {
	env, err := wire.DecodeEnvelopeBorrow(b)
	if err == nil {
		err = wire.Decode(env.Body, m)
	}
	return fmt.Sprintf("%v #%d %+v %v", env.Type, env.ReqID, m, err)
}

// listen dials a listener the test installs on host:port from from and
// returns both ends once the circuit is up; the listener's end ignores
// what it receives until the test sets its handler.
func listen(w *world, from, host string, port uint16) (dialer, listener *simnet.Conn) {
	w.t.Helper()
	if err := w.net.Listen(host, port, func(c *simnet.Conn) {
		listener = c
		c.SetHandler(func([]byte) {})
	}); err != nil {
		w.t.Fatal(err)
	}
	w.net.Dial(from, simnet.Addr{Host: host, Port: port}, func(c *simnet.Conn, err error) {
		if err != nil {
			w.t.Fatal(err)
		}
		dialer = c
	})
	w.until(func() bool { return dialer != nil })
	return dialer, listener
}

// tool connects a ToolClient of u to its LPM on host.
func (w *world) tool(u *auth.User, host string) *ToolClient {
	w.t.Helper()
	var tc *ToolClient
	ConnectTool(w.net, u, host, func(c *ToolClient, err error) {
		if err != nil {
			w.t.Fatal(err)
		}
		tc = c
	})
	w.until(func() bool { return tc != nil })
	return tc
}

// TestHandlersKeepNoDeliveryBuffer: every receive handler is handed a
// frame the test owns, and the frame is zeroed the moment the handler
// returns, as simnet reuses a delivery buffer. The exchange must then
// end exactly as it does with the frame left intact — the same outcome
// and a byte-identical journal. onSiblingMsg passes only because it
// copies the body into the arrival buffer its queued hop borrows it from
// (TestArrivalsBorrowedForTheirDispatch holds that borrow), and
// onToolMsg because it copies the body for its ExecCPU closures.
func TestHandlersKeepNoDeliveryBuffer(t *testing.T) {
	rows := []struct {
		name string
		// arm readies the exchange in a world where felipe's LPM l runs
		// on vax1, and returns the handler call under test, its frame,
		// and how the exchange ended.
		arm func(w *world, u *auth.User, l *LPM) (deliver func([]byte), frame []byte, outcome func() string)
	}{
		{"onFirstMsg", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			var c *simnet.Conn
			var reply string
			w.net.Dial("vax2", l.Accept(), func(conn *simnet.Conn, err error) {
				if err != nil {
					w.t.Fatal(err)
				}
				c = conn
				c.SetHandler(func(b []byte) { reply = render(b, &wire.HelloResp{}) })
			})
			w.until(func() bool { return c != nil })
			hello := wire.Hello{User: u.Name, FromHost: "vax2", Token: auth.MintToken(u, "sibling"),
				Stamp: u.Stamps.Mint("vax2", w.sched.Now().Duration(), 1), Inc: 5}
			return c.DeliverNow, frameOf(wire.MsgHello, 1, &hello), func() string { return fmt.Sprint(reply, l.SiblingHosts()) }
		}},
		{"helloTo", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			c, peer := listen(w, "vax1", "vax2", 9)
			var settled string
			l.helloTo(trace.Context{}, l.peer("vax2"), c, func(sb *sibling, err error) { settled = fmt.Sprint(sb != nil, err) })
			return peer.DeliverNow, frameOf(wire.MsgHelloResp, 0, &wire.HelloResp{OK: true, Inc: 77}),
				func() string { return fmt.Sprint(settled, l.peers["vax2"].inc) }
		}},
		{"ToolClient.onMsg", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			tc := w.tool(u, "vax1")
			var got string
			tc.Control(proc.GPID{Host: "vax1", PID: 99}, wire.OpStop, 0, func(r wire.ControlResp, err error) { got = fmt.Sprintf("%+v %v", r, err) })
			return tc.onMsg, frameOf(wire.MsgControlResp, tc.reqSeq, &wire.ControlResp{OK: true, State: proc.Stopped}), func() string { return got }
		}},
		{"daemon.onQuery", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			var c *simnet.Conn
			var reply string
			w.net.Dial("vax1", simnet.Addr{Host: "vax2", Port: daemon.PortInetd}, func(conn *simnet.Conn, err error) {
				if err != nil {
					w.t.Fatal(err)
				}
				c = conn
				c.SetHandler(func(b []byte) { reply = render(b, &wire.LPMQueryResp{}) })
			})
			w.until(func() bool { return c != nil })
			return c.DeliverNow, frameOf(wire.MsgLPMQuery, 1, &wire.LPMQuery{User: u.Name, Token: auth.MintToken(u, "pmd")}),
				func() string { return reply }
		}},
		{"QueryLPM", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			// vax2's inetd is the test's: it takes the query, the test answers.
			w.net.CloseListen("vax2", daemon.PortInetd)
			var pmd *simnet.Conn
			queried := false
			if err := w.net.Listen("vax2", daemon.PortInetd, func(c *simnet.Conn) {
				pmd = c
				c.SetHandler(func([]byte) { queried = true })
			}); err != nil {
				w.t.Fatal(err)
			}
			var got string
			daemon.QueryLPM(w.net, "vax1", "vax2", u, trace.Context{}, func(r wire.LPMQueryResp, err error) { got = fmt.Sprintf("%+v %v", r, err) })
			w.until(func() bool { return queried })
			return pmd.DeliverNow, frameOf(wire.MsgLPMQueryResp, 1, &wire.LPMQueryResp{OK: true, AcceptHost: "vax2", AcceptPort: 4242}),
				func() string { return got }
		}},
		{"onSiblingMsg", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			c := w.ensure(l, "vax2").conn
			var reply string
			c.SetHandler(func(b []byte) { reply = render(b, &wire.SnapshotResp{}) })
			return c.DeliverNow, frameOf(wire.MsgSnapshotReq, 1, &wire.SnapshotReq{User: u.Name}), func() string { return reply }
		}},
		{"onToolMsg", func(w *world, u *auth.User, l *LPM) (func([]byte), []byte, func() string) {
			c := w.tool(u, "vax1").conn
			var reply string
			c.SetHandler(func(b []byte) { reply = render(b, &wire.SnapshotResp{}) })
			return c.DeliverNow, frameOf(wire.MsgSnapshotReq, 1, &wire.SnapshotReq{User: u.Name}), func() string { return reply }
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			run := func(zero bool) (string, *journal.Journal) {
				w := newWorld(t, Config{}, []string{"vax1", "vax2"})
				j := installJournal(w)
				u := w.user("felipe", "vax1", "vax2")
				deliver, frame, outcome := r.arm(w, u, w.attach("vax1", u))
				deliver(frame)
				if zero {
					clear(frame)
				}
				w.run(10 * time.Second)
				return outcome(), j
			}
			kept, kj := run(false)
			zeroed, zj := run(true)
			if kept == "" || kept != zeroed {
				t.Fatalf("the exchange ended\n  %s\nwith the frame kept, and\n  %s\nwith it zeroed", kept, zeroed)
			}
			if d := journal.Diff(kj, zj); d != nil {
				t.Fatalf("zeroing the frame changed the journal:\n%s", d.Format())
			}
		})
	}
}

// TestReplyTransitFollowsType: wire.Send traces a frame's transit in
// the reply direction exactly when its type is a response, so a
// rejected Hello's HelloResp and the pmd's LPMQueryResp cross as
// "net.reply.*" like every other reply (the profiler's reply phase, not its
// network phase).
func TestReplyTransitFollowsType(t *testing.T) {
	for _, tc := range []struct {
		name, responder string
		start           func(w *world, u *auth.User, l *LPM, ctx trace.Context)
	}{
		{"rejected hello", "vax1", func(w *world, u *auth.User, l *LPM, ctx trace.Context) {
			w.net.Dial("vax2", l.Accept(), func(c *simnet.Conn, err error) {
				if err != nil {
					w.t.Fatal(err)
				}
				hello := wire.Hello{User: u.Name, FromHost: "vax2", Token: []byte("forged"), Stamp: u.Stamps.Mint("vax2", 0, 1)}
				env := wire.Envelope{Type: wire.MsgHello, Body: wire.Encode(&hello)}
				env.SetTrace(ctx.Trace, ctx.Span)
				_ = c.SendCtx(env.Encode(), ctx)
			})
		}},
		{"pmd query", "vax2", func(w *world, u *auth.User, l *LPM, ctx trace.Context) {
			daemon.QueryLPM(w.net, "vax1", "vax2", u, ctx, func(wire.LPMQueryResp, error) {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, Config{}, []string{"vax1", "vax2"})
			u := w.user("felipe", "vax1", "vax2")
			l := w.attach("vax1", u)
			tr := trace.New(func() time.Duration { return w.sched.Now().Duration() })
			tr.Enable()
			w.net.SetRecorder(journal.NewRecorder(nil, tr, nil))
			root := tr.StartTrace("vax1", "op.test")
			tc.start(w, u, l, root.Context())
			w.run(2 * time.Second)
			var sent []string
			for _, s := range tr.Spans() {
				if s.Host == tc.responder && strings.HasPrefix(s.Name, "net.") {
					sent = append(sent, s.Name)
				}
			}
			if len(sent) == 0 {
				t.Fatalf("no transit span from %s", tc.responder)
			}
			for _, name := range sent {
				if !strings.HasPrefix(name, "net.reply.") {
					t.Errorf("%s's reply crossed as %s (all: %v)", tc.responder, name, sent)
				}
			}
		})
	}
}
