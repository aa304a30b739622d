package lpm

import (
	"errors"
	"fmt"
	"time"

	"ppm/internal/auth"
	"ppm/internal/daemon"
	"ppm/internal/detord"
	"ppm/internal/history"
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The paper's Figure 4 separates the LPM's communication endpoints into
// the kernel socket, the accept socket, and "possibly multiple sockets
// for communication with sibling LPMs and local tools". The in-process
// methods on *LPM model the subroutine library ("a library of
// subroutines handles most interactions with the PPM"); ToolClient is
// the other access path: a real local circuit to the accept socket
// speaking the wire protocol, the way independently written tools
// connect.

// ErrToolClosed reports use of a closed tool connection.
var ErrToolClosed = errors.New("lpm: tool connection closed")

// ToolClient is a tool-side handle on a circuit to the local LPM.
type ToolClient struct {
	user    *auth.User
	host    string
	sched   *sim.Scheduler
	metrics *metrics.Registry
	journal *journal.Journal
	conn    *simnet.Conn
	reqSeq  uint64
	pending map[uint64]func(wire.Envelope, error)
	closed  bool
}

// ConnectTool locates the user's LPM on host through the pmd (creating
// it on demand), dials its accept socket, authenticates, and hands the
// ready client to cb. Tools connect from the same host; the LPM
// recognizes the local origin and registers a tool socket rather than
// a sibling circuit.
func ConnectTool(net *simnet.Network, user *auth.User, host string,
	cb func(*ToolClient, error)) {
	daemon.QueryLPM(net, host, host, user, func(resp wire.LPMQueryResp, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if !resp.OK {
			cb(nil, fmt.Errorf("lpm: tool connect: %s", resp.Reason))
			return
		}
		to := simnet.Addr{Host: resp.AcceptHost, Port: resp.AcceptPort}
		net.Dial(host, to, func(conn *simnet.Conn, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			t := &ToolClient{
				user:    user,
				host:    host,
				sched:   net.Scheduler(),
				metrics: net.Metrics(),
				journal: net.Journal(),
				conn:    conn,
				pending: make(map[uint64]func(wire.Envelope, error)),
			}
			t.hello(cb)
		})
	})
}

func (t *ToolClient) hello(cb func(*ToolClient, error)) {
	answered := false
	t.conn.SetHandler(func(b []byte) {
		if answered {
			t.onMsg(b)
			return
		}
		answered = true
		env, err := wire.DecodeEnvelopeLogged(b, t.journal, t.host)
		if err != nil || env.Type != wire.MsgHelloResp {
			t.conn.Close()
			cb(nil, errors.New("lpm: tool hello: bad reply"))
			return
		}
		var resp wire.HelloResp
		if wire.Decode(env.Body, &resp) != nil || !resp.OK {
			t.conn.Close()
			cb(nil, fmt.Errorf("lpm: tool hello rejected: %s", resp.Reason))
			return
		}
		t.conn.SetHandler(t.onMsg)
		cb(t, nil)
	})
	t.conn.SetCloseHandler(func(err error) { t.onClosed(err) })
	hello := wire.Hello{
		User:     t.user.Name,
		FromHost: t.host,
		Token:    auth.MintToken(t.user, "sibling"),
		Stamp:    wire.NewStamp(t.user.Key(), t.host, t.sched.Now().Duration(), 1),
	}
	//ppmlint:allow errdrop a lost Hello surfaces as onClosed; the tool reports the dead socket there
	_ = t.sendFramed(wire.Envelope{Type: wire.MsgHello, Body: wire.Encode(&hello)})
}

func (t *ToolClient) onClosed(err error) {
	t.closed = true
	if err == nil {
		err = ErrToolClosed
	}
	ids := detord.Keys(t.pending)
	for _, id := range ids {
		cb := t.pending[id]
		delete(t.pending, id)
		cb(wire.Envelope{}, err)
	}
}

func (t *ToolClient) onMsg(b []byte) {
	env, err := wire.DecodeEnvelopeLogged(b, t.journal, t.host)
	if err != nil {
		return
	}
	cb, ok := t.pending[env.ReqID]
	if !ok {
		return
	}
	delete(t.pending, env.ReqID)
	cb(env, nil)
}

// Close shuts the tool connection down.
func (t *ToolClient) Close() {
	if !t.closed {
		t.closed = true
		t.conn.Close()
	}
}

// sendFramed encodes env through a pooled encoder and sends it; the
// network copies the frame on send, so the encoder is released
// immediately and the tool request path allocates no per-message frame.
func (t *ToolClient) sendFramed(env wire.Envelope) error {
	enc := wire.GetEncoder()
	err := t.conn.Send(env.EncodeLoggedTo(enc, t.metrics, t.journal, t.host))
	wire.PutEncoder(enc)
	return err
}

// call sends one request envelope and routes the response to cb.
func (t *ToolClient) call(mt wire.MsgType, body []byte, cb func(wire.Envelope, error)) {
	if t.closed {
		t.sched.Defer(func() { cb(wire.Envelope{}, ErrToolClosed) })
		return
	}
	t.reqSeq++
	id := t.reqSeq
	t.pending[id] = cb
	//ppmlint:allow errdrop a lost request fails the pending callback via onClosed, not this return
	_ = t.sendFramed(wire.Envelope{Type: mt, ReqID: id, Body: body})
}

// Control performs a process-control operation through the wire
// protocol.
func (t *ToolClient) Control(target proc.GPID, op wire.ControlOp, sig proc.Signal,
	cb func(wire.ControlResp, error)) {
	req := wire.Control{User: t.user.Name, Target: target, Op: op, Signal: sig}
	t.call(wire.MsgControl, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.ControlResp
		err = firstErr(err, wire.Decode(env.Body, &resp))
		cb(resp, err)
	})
}

// Create starts an adopted process on the LPM's host.
func (t *ToolClient) Create(name string, parent proc.GPID, cb func(proc.GPID, error)) {
	req := wire.CreateProc{User: t.user.Name, Name: name, Parent: parent}
	t.call(wire.MsgCreateProc, wire.Encode(&req), func(env wire.Envelope, err error) {
		var a wire.CreateAck
		err = firstErr(err, wire.Decode(env.Body, &a))
		if err == nil && !a.OK {
			err = refused(a.Reason)
		}
		cb(a.ID, err)
	})
}

// Snapshot gathers the distributed snapshot (the LPM floods the
// request over its circuit graph on the tool's behalf).
func (t *ToolClient) Snapshot(cb func(proc.Snapshot, error)) {
	req := wire.SnapshotReq{User: t.user.Name, Forward: true}
	t.call(wire.MsgSnapshotReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.SnapshotResp
		err = firstErr(err, wire.Decode(env.Body, &resp))
		if err == nil && !resp.OK {
			err = refused(resp.Reason)
		}
		if err != nil {
			cb(proc.Snapshot{}, err)
			return
		}
		snap := proc.Merge(t.sched.Now().Duration(), resp.Procs)
		snap.Partial = resp.Partial
		cb(snap, nil)
	})
}

// Stats fetches a process's resource-consumption record.
func (t *ToolClient) Stats(target proc.GPID, cb func(proc.Info, error)) {
	req := wire.StatsReq{User: t.user.Name, Target: target}
	t.call(wire.MsgStatsReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.StatsResp
		err = firstErr(err, wire.Decode(env.Body, &resp))
		if err == nil && !resp.OK {
			err = refused(resp.Reason)
		}
		cb(resp.Info, err)
	})
}

// History queries the LPM's preserved event trace.
func (t *ToolClient) History(q history.Query, cb func([]proc.Event, error)) {
	req := wire.HistoryReq{
		User: t.user.Name, Proc: q.Proc,
		Since: q.Since, Limit: uint16(q.Limit),
	}
	for _, k := range q.Kinds {
		req.Kinds = append(req.Kinds, uint8(k))
	}
	t.call(wire.MsgHistoryReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.HistoryResp
		err = firstErr(err, wire.Decode(env.Body, &resp))
		if err == nil && !resp.OK {
			err = refused(resp.Reason)
		}
		cb(resp.Events, err)
	})
}

// --- LPM-side tool socket handling ---

// onToolMsg serves requests arriving on a registered tool socket. Tool
// requests ride the same wire protocol as sibling requests, but a
// snapshot from a tool triggers the distributed flood (the tool wants
// the whole computation, not one host's fragment).
func (l *LPM) onToolMsg(conn *simnet.Conn, b []byte) {
	if l.exited {
		return
	}
	env, err := wire.DecodeEnvelopeLogged(b, l.journal, l.Host())
	if err != nil {
		return
	}
	l.touch()
	ctx := trace.Context{Trace: env.TraceID, Span: env.SpanID}
	reply := func(mt wire.MsgType, body []byte) {
		l.kern.ExecCPU(toolSocketLeg, func() {
			if conn.Open() {
				renv := wire.Envelope{Type: mt, ReqID: env.ReqID, Body: body}
				renv.SetTrace(ctx.Trace, ctx.Span)
				//ppmlint:allow errdrop tool-socket reply is fire-and-forget; the tool's timeout covers a lost frame
				_ = l.sendFramedReply(conn, renv, ctx)
			}
		})
	}
	l.kern.ExecCPU(toolSocketLeg, func() {
		if l.exited {
			return
		}
		switch env.Type {
		case wire.MsgSnapshotReq:
			var req wire.SnapshotReq
			if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
				reply(wire.MsgSnapshotResp, wire.Encode(&wire.SnapshotResp{OK: false, Reason: "bad snapshot request"}))
				return
			}
			inner := wire.Envelope{Type: wire.MsgSnapshotReq, Body: env.Body}
			l.startFlood(ctx, inner, func(res wire.FloodResult) {
				reply(wire.MsgSnapshotResp, wire.Encode(&wire.SnapshotResp{
					OK: true, Procs: res.Procs, Partial: l.uncovered(res),
				}))
			})
		case wire.MsgControl:
			// A zero-target control from a tool is a broadcast.
			var req wire.Control
			derr := wire.Decode(env.Body, &req)
			if derr == nil && req.Target.IsZero() && req.User == l.user.Name {
				inner := wire.Envelope{Type: wire.MsgControl, Body: env.Body}
				l.startFlood(ctx, inner, func(res wire.FloodResult) {
					reply(wire.MsgControlResp, wire.Encode(&wire.ControlResp{OK: true, State: proc.Running}))
				})
				return
			}
			if derr == nil && req.Target.Host != l.Host() {
				// Tools may target remote processes; the LPM forwards.
				l.remoteCall(ctx, req.Target.Host, wire.MsgControl, env.Body,
					func(renv wire.Envelope, rerr error) {
						if rerr != nil {
							reply(wire.MsgControlResp, wire.Encode(&wire.ControlResp{OK: false, Reason: rerr.Error()}))
							return
						}
						reply(wire.MsgControlResp, renv.Body)
					})
				return
			}
			l.serveRequest(ctx, env, reply)
		default:
			l.serveRequest(ctx, env, reply)
		}
	})
}

// toolSocketLeg is the per-leg cost of tool-socket traffic (local IPC,
// same as the subroutine-library tool leg).
const toolSocketLeg = 11 * time.Millisecond
