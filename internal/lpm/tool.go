package lpm

import (
	"bytes"
	"errors"
	"fmt"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/daemon"
	"ppm/internal/detord"
	"ppm/internal/history"
	"ppm/internal/journal"
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
	obs     *journal.Recorder
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
	daemon.QueryLPM(net, host, host, user, trace.Context{}, func(resp wire.LPMQueryResp, err error) {
		if err = answer(err, nil, &resp.OK, &resp.Reason); err != nil {
			cb(nil, fmt.Errorf("lpm: tool connect: %w", err))
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
				obs:     net.Recorder(),
				conn:    conn,
				pending: make(map[uint64]func(wire.Envelope, error)),
			}
			t.hello(cb)
		})
	})
}

// hello authenticates the fresh circuit: the first request on it.
func (t *ToolClient) hello(cb func(*ToolClient, error)) {
	t.conn.SetHandler(t.onMsg)
	t.conn.SetCloseHandler(t.onClosed)
	hello := wire.Hello{
		User:     t.user.Name,
		FromHost: t.host,
		Token:    auth.MintToken(t.user, "sibling"),
		Stamp:    t.user.Stamps.Mint(t.host, t.sched.Now().Duration(), 1),
	}
	t.call(wire.MsgHello, wire.Encode(&hello), func(env wire.Envelope, err error) {
		var resp wire.HelloResp
		if err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason); err != nil {
			t.Close()
			cb(nil, fmt.Errorf("lpm: tool hello: %w", err))
			return
		}
		cb(t, nil)
	})
}

func (t *ToolClient) onClosed(err error) {
	t.closed = true
	if err == nil {
		err = ErrToolClosed
	}
	for _, id := range detord.Keys(t.pending) {
		cb := t.pending[id]
		delete(t.pending, id)
		cb(wire.Envelope{}, err)
	}
}

func (t *ToolClient) onMsg(b []byte) {
	env, err := wire.DecodeEnvelopeLogged(b, t.obs, t.host)
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

// call sends one request envelope and routes the response to cb.
func (t *ToolClient) call(mt wire.MsgType, body []byte, cb func(wire.Envelope, error)) {
	if t.closed {
		t.sched.Defer(func() { cb(wire.Envelope{}, ErrToolClosed) })
		return
	}
	t.reqSeq++
	t.pending[t.reqSeq] = cb
	//ppmlint:allow errdrop a lost request fails the pending callback via onClosed, not this return
	_ = wire.Send(t.conn, wire.Envelope{Type: mt, ReqID: t.reqSeq, Body: body}, t.obs, t.host)
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

// A caller delivers one request to the LPM that serves it and hands
// back the reply: over a tool's socket (ToolClient.call) or a sibling
// circuit (LPM.via). The client stubs are its methods, written once for
// both doors: each builds the request, and turns the reply into a value
// or the one error of answer.
type caller func(t wire.MsgType, body []byte, cb func(wire.Envelope, error))

// via is the caller that reaches the user's LPM on host from inside a
// toolCall. The stub reads the reply while its body is borrowed, so the
// caller pays the reply's tool leg in the stub's callback.
func (l *LPM) via(ctx trace.Context, host string) caller {
	return func(t wire.MsgType, body []byte, cb func(wire.Envelope, error)) {
		l.remoteCall(ctx, host, t, body, cb)
	}
}

func (call caller) create(user, name string, parent proc.GPID, cb func(proc.GPID, error)) {
	req := wire.CreateProc{User: user, Name: name, Parent: parent}
	call(wire.MsgCreateProc, wire.Encode(&req), func(env wire.Envelope, err error) {
		var a wire.CreateAck
		err = answer(err, wire.Decode(env.Body, &a), &a.OK, &a.Reason)
		cb(a.ID, err)
	})
}

func (call caller) stats(user string, target proc.GPID, cb func(proc.Info, error)) {
	req := wire.StatsReq{User: user, Target: target}
	call(wire.MsgStatsReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.StatsResp
		err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
		cb(resp.Info, err)
	})
}

func (call caller) history(user string, q history.Query, cb func([]proc.Event, error)) {
	req := wire.HistoryReq{User: user, Proc: q.Proc, Since: q.Since, Limit: uint16(q.Limit)}
	for _, k := range q.Kinds {
		req.Kinds = append(req.Kinds, uint8(k))
	}
	call(wire.MsgHistoryReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.HistoryResp
		err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
		cb(resp.Events, err)
	})
}

// Create starts an adopted process on the LPM's host.
func (t *ToolClient) Create(name string, parent proc.GPID, cb func(proc.GPID, error)) {
	caller(t.call).create(t.user.Name, name, parent, cb)
}

// Snapshot gathers the distributed snapshot (the LPM floods the
// request over its circuit graph on the tool's behalf).
func (t *ToolClient) Snapshot(cb func(proc.Snapshot, error)) {
	req := wire.SnapshotReq{User: t.user.Name, Forward: true}
	t.call(wire.MsgSnapshotReq, wire.Encode(&req), func(env wire.Envelope, err error) {
		var resp wire.SnapshotResp
		if err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason); err != nil {
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
	caller(t.call).stats(t.user.Name, target, cb)
}

// History queries the LPM's preserved event trace.
func (t *ToolClient) History(q history.Query, cb func([]proc.Event, error)) {
	caller(t.call).history(t.user.Name, q, cb)
}

// --- LPM-side tool socket handling ---

// onToolMsg serves requests arriving on a registered tool socket. Tool
// requests ride the same wire protocol as sibling requests and are
// routed like the library's: one that names no process is for the whole
// computation and floods (the tool wants every host's fragment, not
// this one's), one that names a process elsewhere is forwarded to the
// LPM there, and the rest are served here.
func (l *LPM) onToolMsg(conn *simnet.Conn, b []byte) {
	if l.exited {
		return
	}
	env, err := wire.DecodeEnvelopeLogged(b, l.obs, l.Host())
	if err != nil {
		return
	}
	env.Body = append([]byte(nil), env.Body...) // the ExecCPU closures below outlive the delivery buffer
	l.touch()
	ctx := trace.Context{Trace: env.TraceID, Span: env.SpanID}
	reply := func(mt wire.MsgType, body []byte) {
		l.kern.ExecCPU(calib.ToolLeg, func() {
			if conn.Open() {
				//ppmlint:allow errdrop tool-socket reply is fire-and-forget; the tool's timeout covers a lost frame
				_ = wire.Send(conn, wire.Envelope{Type: mt, ReqID: env.ReqID, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}, l.obs, l.Host())
			}
		})
	}
	l.kern.ExecCPU(calib.ToolLeg, func() {
		if l.exited {
			return
		}
		target, targeted := l.toolTarget(env)
		switch where := l.routeOf(target); {
		case targeted && where == everywhere:
			l.startFlood(ctx, wire.Envelope{Type: env.Type, Body: env.Body}, func(f flooded) {
				if env.Type == wire.MsgSnapshotReq {
					reply(wire.MsgSnapshotResp, wire.Encode(&wire.SnapshotResp{OK: true, Procs: f.procs, Partial: l.uncovered(f)}))
					return
				}
				reply(wire.MsgControlResp, wire.Encode(&wire.ControlResp{OK: true, State: proc.Running}))
			})
		case targeted && where == there:
			l.remoteCall(ctx, target.Host, env.Type, env.Body, func(renv wire.Envelope, rerr error) {
				if rerr != nil {
					reply(refusal(env.Type, rerr.Error()))
					return
				}
				reply(renv.Type, bytes.Clone(renv.Body)) // the reply's tool leg is past the borrow
			})
		default:
			l.serveRequest(env, replyTo{l: l, ctx: ctx, fn: reply})
		}
	})
}

// toolTarget decodes the process a tool's request is about; a snapshot
// is about all of them, the zero GPID, and so is a control that names
// none. targeted is false for every other request serveRequest answers
// whole: ops that name no process, a request that names none where one
// is needed, and those it refuses (undecodable, or another user's).
func (l *LPM) toolTarget(env wire.Envelope) (target proc.GPID, targeted bool) {
	mine := func(req wire.Message, user *string) bool {
		return wire.Decode(env.Body, req) == nil && *user == l.user.Name
	}
	switch env.Type {
	case wire.MsgSnapshotReq:
		var req wire.SnapshotReq
		return target, mine(&req, &req.User)
	case wire.MsgControl:
		var req wire.Control
		targeted = mine(&req, &req.User)
		return req.Target, targeted
	case wire.MsgStatsReq:
		var req wire.StatsReq
		targeted = mine(&req, &req.User)
		return req.Target, targeted && !req.Target.IsZero()
	case wire.MsgFDReq:
		var req wire.FDReq
		targeted = mine(&req, &req.User)
		return req.Target, targeted && !req.Target.IsZero()
	}
	return target, false
}

// refusal is the reply that tells a tool its forwarded request could
// not be delivered: the op's own response type, refusing with reason.
func refusal(req wire.MsgType, reason string) (wire.MsgType, []byte) {
	switch req {
	case wire.MsgStatsReq:
		return wire.MsgStatsResp, wire.Encode(&wire.StatsResp{Reason: reason})
	case wire.MsgFDReq:
		return wire.MsgFDResp, wire.Encode(&wire.FDResp{Reason: reason})
	}
	return wire.MsgControlResp, wire.Encode(&wire.ControlResp{Reason: reason})
}
