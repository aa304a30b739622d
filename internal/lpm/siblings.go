package lpm

import (
	"fmt"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/daemon"
	"ppm/internal/detect"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/recovery"
	"ppm/internal/ring"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// Compile-time check: the adapter satisfies the recovery environment.
var _ recovery.Env = (*recEnv)(nil)

// --- inbound circuits (the accept socket) ---

// acceptConn receives new circuits on the accept socket. The first
// message must be a Hello: authentication happens once, at channel
// creation, not on every request.
func (l *LPM) acceptConn(conn *simnet.Conn) {
	if l.exited {
		conn.Close()
		return
	}
	conn.SetHandler(func(b []byte) { l.onFirstMsg(conn, b) })
	conn.SetCloseHandler(func(error) {}) // unauthenticated: nothing to clean
}

func (l *LPM) onFirstMsg(conn *simnet.Conn, b []byte) {
	env, err := wire.DecodeEnvelopeLogged(b, l.obs, l.Host())
	if err != nil || env.Type != wire.MsgHello {
		conn.Close()
		return
	}
	var hello wire.Hello
	if wire.Decode(env.Body, &hello) != nil {
		conn.Close()
		return
	}
	ctx := trace.Context{Trace: env.TraceID, Span: env.SpanID}
	esp := l.obs.Tracer().StartSpan(l.Host(), "dispatch.endpoint", ctx)
	l.kern.ExecCPU(calib.SiblingEndpoint, func() {
		esp.End()
		l.handleHello(conn, env.ReqID, hello, ctx)
	})
}

func (l *LPM) handleHello(conn *simnet.Conn, reqID uint64, hello wire.Hello, ctx trace.Context) {
	reject := func(reason string) {
		l.obs.Notef(journal.LPMSiblingReject, l.Host(), ctx, "from=%s reason=%s", hello.FromHost, reason)
		body := wire.Encode(&wire.HelloResp{OK: false, Reason: reason})
		//ppmlint:allow errdrop rejection notice is best-effort; the circuit closes right after either way
		_ = l.sendFramed(conn, wire.Envelope{Type: wire.MsgHelloResp, ReqID: reqID, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}, false)
		l.sched.After(0, conn.Close)
	}
	if !conn.Open() {
		// The dialer gave up (hello timeout, its host died) while this
		// Hello sat in the CPU queue: the close notification already ran
		// against the pre-auth no-op handler. Registering the corpse
		// would create a zombie circuit — established in the machine,
		// but with a dead conn whose close handler can never fire.
		l.obs.Metrics().Counter("lpm.hello.dead_conn").Inc()
		return
	}
	if l.exited {
		reject("lpm exited")
		return
	}
	// A sibling must manage the same user...
	if hello.User != l.user.Name {
		reject("user mismatch")
		return
	}
	// ... present a token minted with the user's key ...
	if err := l.dir.VerifyToken(hello.User, "sibling", hello.Token); err != nil {
		reject(fmt.Sprintf("token: %v", err))
		return
	}
	// ... and a validly signed stamp naming its host.
	if !l.user.Stamps.Verify(&hello.Stamp) || hello.Stamp.Origin != hello.FromHost {
		reject("bad stamp")
		return
	}
	// The claimed origin must match the circuit's actual remote end
	// (user-level masquerade prevention; host-level masquerade is out
	// of scope, as in the paper).
	if conn.RemoteAddr().Host != hello.FromHost {
		reject("origin mismatch")
		return
	}
	// Simultaneous cross-dial tie-break: when both hosts Hello each
	// other in the same instant, each side would otherwise register
	// the inbound circuit and then have it superseded by its own
	// outbound one — leaving the pair with two live circuits, each
	// host pinning a different one. Deterministic rule: the lower
	// host name's outbound circuit wins, so the lower host rejects
	// the inbound Hello while its own dial is still in flight; the
	// higher host sees the "cross-dial" reason, abandons its outbound
	// attempt, and waits for the winner's Hello to land.
	if ds, ok := l.dialing[hello.FromHost]; ok && !ds.done && l.Host() < hello.FromHost {
		l.obs.Metrics().Counter("lpm.crossdial.rejects").Inc()
		reject("cross-dial")
		return
	}
	// Authentication happens exactly once, here, at channel creation;
	// the audit invariant holds the journal to that.
	l.obs.Notef(journal.LPMSiblingAuth, l.Host(), ctx, "user=%s chan=%s from=%s", hello.User, l.chanKey(conn), hello.FromHost)
	body := wire.Encode(&wire.HelloResp{OK: true, Inc: l.incarnation()})
	respEnv := wire.Envelope{Type: wire.MsgHelloResp, ReqID: reqID, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}
	if hello.FromHost == l.Host() {
		// A local tool connecting to the accept socket (Figure 4's tool
		// sockets), not a sibling.
		conn.SetHandler(func(b []byte) { l.onToolMsg(conn, b) })
		conn.SetCloseHandler(func(error) {})
	} else {
		l.registerSibling(hello.FromHost, conn, hello.Inc)
		if hello.CCSHost != "" {
			l.rec.OnContact(hello.CCSHost)
		}
	}
	//ppmlint:allow errdrop send failure surfaces through the circuit's close handler, not this return
	_ = l.sendFramed(conn, respEnv, true)
}

// registerSibling installs an authenticated circuit. inc is the peer
// LPM's incarnation from the Hello exchange: when it differs from the
// one previously seen for this host, the peer's LPM was recreated (the
// host restarted, or the LPM exited and a fresh one was spawned) and
// every piece of dedup state scoped to the predecessor — cached
// replies and in-flight markers — is purged. The predecessor's op
// numbering can never be spoken again, so the entries could only ever
// cause a fresh operation to be wrongly answered from a stale cache.
func (l *LPM) registerSibling(host string, conn *simnet.Conn, inc uint64) {
	if old, ok := l.peerIncs[host]; ok && old != inc {
		prefix := wire.OpPrefix(host, old)
		l.replies.PurgePrefix(prefix)
		ring.PurgePrefix(l.inflightOps, prefix)
	}
	l.peerIncs[host] = inc
	if old, ok := l.siblings[host]; ok && old.conn != conn && old.conn.Open() {
		// A replacement circuit supersedes a live one: step the
		// machine through Closed first so the pair never shows two
		// Established circuits, then close (the close handler's own
		// transition no-ops).
		l.circuitTransition(host, old.chanKey, journal.CircuitClosed, "superseded", 0)
		old.conn.Close()
	}
	key := l.chanKey(conn)
	// An inbound Hello reaches here without passing through the
	// Dialing leg; normalize onto Authenticating before stepping to
	// Established so the journaled walk follows the legal table from
	// whichever state the machine was in.
	if l.circuits[host] != journal.CircuitAuthenticating {
		l.circuitTransition(host, key, journal.CircuitAuthenticating, "hello-in", 0)
	}
	sb := &sibling{host: host, conn: conn, chanKey: key, inc: inc, openedAt: l.sched.Now()}
	sb.det = detect.New(detect.Config{}, l.sched.Now().Duration())
	l.siblings[host] = sb
	l.knownHosts[host] = true
	l.obs.Metrics().Gauge("lpm.siblings.open").Add(1)
	role, reason := "client", "auth-client"
	if conn.LocalAddr() == l.accept {
		role, reason = "server", "auth-server"
	}
	l.circuitTransition(host, key, journal.CircuitEstablished, reason, 0)
	l.obs.Notef(journal.LPMSiblingOpen, l.Host(), l.obs.Tracer().Active(),
		"user=%s peer=%s chan=%s role=%s", l.user.Name, host, key, role)
	conn.SetHandler(func(b []byte) { l.onSiblingMsg(sb, b) })
	conn.SetCloseHandler(func(err error) { l.onSiblingClosed(sb, err) })
	if l.cfg.Linktest > 0 {
		l.scheduleLinktest(sb)
	}
	// An inbound establishment serves any dial in flight to the same
	// host: the queued callbacks get this circuit instead of waiting
	// for (or cross-dialing against) the outbound attempt.
	l.completeDial(host, sb)
	l.rec.OnSiblingUp(host)
	l.touch()
}

func (l *LPM) onSiblingClosed(sb *sibling, err error) {
	if cur, ok := l.siblings[sb.host]; ok && cur == sb {
		delete(l.siblings, sb.host)
		sb.ltTimer.Cancel()
		reason := "close"
		if err != nil {
			reason = "peer-lost"
		}
		l.circuitTransition(sb.host, sb.chanKey, journal.CircuitClosed, reason, 0)
		l.obs.Metrics().Gauge("lpm.siblings.open").Add(-1)
		l.obs.Notef(journal.LPMSiblingClose, l.Host(), l.obs.Tracer().Active(),
			"user=%s peer=%s chan=%s", l.user.Name, sb.host, sb.chanKey)
	}
	// Fail outstanding requests to that host, oldest first (map order
	// would let error callbacks race each other across identical runs).
	for _, id := range detord.Keys(l.pending) {
		if pr := l.pending[id]; pr != nil && pr.host == sb.host {
			l.complete(pr, wire.Envelope{}, fmt.Errorf("%w: %s", ErrNoSibling, sb.host))
		}
	}
	if err != nil && !l.exited {
		l.obs.Metrics().Counter("lpm.recovery.siblings_lost").Inc()
		l.rec.OnSiblingLost(sb.host)
	}
}

// --- outbound circuits ---

// ensureSibling returns an authenticated circuit to the user's LPM on
// host, creating the remote LPM (via its pmd) and the circuit on
// demand. Concurrent requests for the same host coalesce. The pmd
// query, the dial handshake and the Hello exchange all record spans
// under a "circuit.establish" child of ctx.
func (l *LPM) ensureSibling(ctx trace.Context, host string, cb func(*sibling, error)) {
	if l.exited {
		cb(nil, ErrExited)
		return
	}
	if host == l.Host() {
		cb(nil, fmt.Errorf("%w: self-connection", ErrBadRequest))
		return
	}
	if sb, ok := l.siblings[host]; ok && sb.conn.Open() {
		l.sched.Defer(func() { cb(sb, nil) })
		return
	}
	if ds, ok := l.dialing[host]; ok {
		ds.cbs = append(ds.cbs, cb)
		return
	}
	csp := l.obs.Tracer().StartSpan(l.Host(), "circuit.establish."+host, ctx)
	ds := &dialState{cbs: []func(*sibling, error){cb}, span: csp}
	l.dialing[host] = ds
	l.circuitTransition(host, "-", journal.CircuitDialing, "dial", 0)
	cctx := csp.Context()
	if !cctx.Valid() {
		cctx = ctx
	}
	finish := func(sb *sibling, err error) { l.settleDial(host, ds, sb, err) }
	daemon.QueryLPMCtx(l.net, l.Host(), host, l.user, cctx, func(resp wire.LPMQueryResp, err error) {
		if l.exited {
			finish(nil, ErrExited)
			return
		}
		if err != nil {
			finish(nil, fmt.Errorf("%w: query %s: %v", ErrNoSibling, host, err))
			return
		}
		if !resp.OK {
			finish(nil, fmt.Errorf("%w: pmd on %s: %s", ErrNoSibling, host, resp.Reason))
			return
		}
		to := simnet.Addr{Host: resp.AcceptHost, Port: resp.AcceptPort}
		l.net.DialCtx(l.Host(), to, cctx, func(conn *simnet.Conn, err error) {
			if err != nil {
				finish(nil, fmt.Errorf("%w: dial %s: %v", ErrNoSibling, host, err))
				return
			}
			l.helloTo(cctx, host, conn, finish)
		})
	})
}

// settleDial settles one dial to host exactly once — through
// ensureSibling's error paths, the dialed circuit's own Hello, or an
// inbound circuit landing first (completeDial). Whichever runs first
// ends the establish span and drains the callback queue; later calls
// no-op.
func (l *LPM) settleDial(host string, ds *dialState, sb *sibling, err error) {
	if ds.done {
		return
	}
	ds.done = true
	ds.span.End()
	delete(l.dialing, host)
	if err != nil {
		l.circuitTransition(host, "-", journal.CircuitClosed, "dial-failed", 0)
	}
	for _, f := range ds.cbs {
		f(sb, err)
	}
}

// completeDial settles an in-flight dial to host with an already
// registered circuit (the inbound leg of a cross-dial, or a redial
// racing an inbound Hello): every queued callback receives sb.
func (l *LPM) completeDial(host string, sb *sibling) {
	if ds, ok := l.dialing[host]; ok {
		l.settleDial(host, ds, sb, nil)
	}
}

// helloTo authenticates a freshly dialed circuit.
func (l *LPM) helloTo(ctx trace.Context, host string, conn *simnet.Conn, finish func(*sibling, error)) {
	l.circuitTransition(host, l.chanKey(conn), journal.CircuitAuthenticating, "hello", 0)
	l.floodSeq++
	// Encoded now: the signature is the signer's buffer until its next Mint.
	body := wire.Encode(&wire.Hello{
		User:     l.user.Name,
		FromHost: l.Host(),
		Token:    auth.MintToken(l.user, "sibling"),
		Stamp:    l.user.Stamps.Mint(l.Host(), l.sched.Now().Duration(), l.floodSeq),
		CCSHost:  l.rec.CCS(),
		Inc:      l.incarnation(),
	})
	answered := false
	var helloTmr sim.Timer
	settle := func() {
		answered = true
		helloTmr.Cancel()
	}
	conn.SetHandler(func(b []byte) {
		if answered {
			return
		}
		settle()
		env, err := wire.DecodeEnvelopeLogged(b, l.obs, l.Host())
		if err != nil || env.Type != wire.MsgHelloResp {
			conn.Close()
			finish(nil, fmt.Errorf("%w: bad hello reply from %s", ErrNoSibling, host))
			return
		}
		var resp wire.HelloResp
		if err := wire.Decode(env.Body, &resp); err != nil || !resp.OK {
			conn.Close()
			if err == nil && resp.Reason == "cross-dial" {
				// The peer is the lower-named host and is dialing us
				// right now (it only rejects with this reason while
				// its own dial to us is in flight): its Hello is
				// already on the wire and will settle this dial via
				// completeDial. Keep the dial open for it, bounded by
				// a safety timeout in case the winning circuit dies
				// mid-handshake.
				l.obs.Metrics().Counter("lpm.crossdial.yields").Inc()
				l.sched.After(l.cfg.RequestTimeout, func() {
					finish(nil, fmt.Errorf("%w: cross-dial yield to %s never completed", ErrNoSibling, host))
				})
				return
			}
			finish(nil, fmt.Errorf("%w: %s rejected hello: %s", ErrNoSibling, host, resp.Reason))
			return
		}
		inc := resp.Inc // copied out: capturing the decoded-into resp would move it to the heap
		rsp := l.obs.Tracer().StartSpan(l.Host(), "dispatch.endpoint", ctx)
		l.kern.ExecCPU(calib.SiblingEndpoint, func() {
			rsp.End()
			if !conn.Open() {
				// Closed while the registration sat in the CPU queue
				// (the close handler already no-opped: answered is set).
				// Registering it would park a dead conn in Established.
				l.obs.Metrics().Counter("lpm.hello.dead_conn").Inc()
				finish(nil, fmt.Errorf("%w: circuit to %s closed during hello", ErrNoSibling, host))
				return
			}
			l.registerSibling(host, conn, inc)
			finish(l.siblings[host], nil)
		})
	})
	conn.SetCloseHandler(func(err error) {
		if !answered {
			settle()
			finish(nil, fmt.Errorf("%w: circuit to %s broke during hello", ErrNoSibling, host))
		}
	})
	// Bound the handshake: a hello whose reply is lost would otherwise
	// park the dial forever (the circuit stays open, so the close
	// handler never fires). Timing out surfaces ErrNoSibling, which the
	// retry engine treats as retryable.
	helloTmr = l.sched.After(l.cfg.RequestTimeout, func() {
		if answered {
			return
		}
		answered = true
		l.obs.Metrics().Counter("lpm.hello.timeouts").Inc()
		conn.Close()
		finish(nil, fmt.Errorf("%w: hello to %s timed out", ErrNoSibling, host))
	})
	esp := l.obs.Tracer().StartSpan(l.Host(), "dispatch.endpoint", ctx)
	l.kern.ExecCPU(calib.SiblingEndpoint, func() {
		esp.End()
		//ppmlint:allow errdrop a lost Hello is retried by the redial engine; failure surfaces on circuit close
		_ = l.sendFramed(conn, wire.Envelope{Type: wire.MsgHello, ReqID: 0, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}, false)
	})
}

// sendFramed encodes env through a pooled encoder and hands the frame
// to the circuit under env's trace context. A reply's transit is traced
// as "net.reply.*" spans, for the profiler's reply-transit phase (the
// circuit carries no direction). The network copies the frame
// synchronously, so the encoder is released as soon as the send returns.
func (l *LPM) sendFramed(conn *simnet.Conn, env wire.Envelope, reply bool) error {
	enc, ctx := wire.GetEncoder(), trace.Context{Trace: env.TraceID, Span: env.SpanID}
	var err error
	if frame := env.EncodeLoggedTo(enc, l.obs, l.Host()); reply {
		err = conn.SendReplyCtx(frame, ctx)
	} else {
		err = conn.SendCtx(frame, ctx)
	}
	wire.PutEncoder(enc)
	return err
}

// --- message plumbing ---

// onSiblingMsg routes a message arriving on an authenticated circuit.
func (l *LPM) onSiblingMsg(sb *sibling, b []byte) {
	if l.exited {
		return
	}
	env, err := wire.DecodeEnvelopeLogged(b, l.obs, l.Host())
	if err != nil {
		return
	}
	l.touch()
	l.observeArrival(sb)
	cost := env.Type.EndpointCost()
	if l.cfg.PerMessageAuth {
		// The datagram-style scheme authenticates every message instead
		// of once per channel.
		cost += calib.AuthCheck
	}
	l.kern.ExecCPU(cost, l.newHop(sb, env, false, false).run)
}

// sendOut queues env for sb's circuit behind its endpoint cost: a reply,
// a request attempt, or (not a reply, ReqID 0) a one-way message.
func (l *LPM) sendOut(sb *sibling, env wire.Envelope, reply bool) {
	l.kern.ExecCPU(env.Type.EndpointCost(), l.newHop(sb, env, true, reply).run)
}

// hop is one sibling message waiting for its endpoint CPU slot under a
// "dispatch.endpoint" span: an arrival, or (out) a message to send. A
// request's hop holds only its id, so the request's record may be
// reused while the hop queues; a hop queued on a crashed boot is dropped.
type hop struct {
	l          *LPM
	sb         *sibling
	env        wire.Envelope
	out, reply bool // reply: traced as one
	esp        *trace.Span
	run        func() // fire, bound when the record is first used
}

func (l *LPM) newHop(sb *sibling, env wire.Envelope, out, reply bool) *hop {
	h := hopFree.Get().(*hop)
	if h.run == nil {
		h.run = h.fire
	}
	h.l, h.sb, h.env, h.out, h.reply = l, sb, env, out, reply
	h.esp = l.obs.Tracer().StartSpan(l.Host(), "dispatch.endpoint", trace.Context{Trace: env.TraceID, Span: env.SpanID})
	return h
}

// fire does the hop's work once its endpoint cost is paid, the record
// back in the pool first (that work may take another).
//
//ppmlint:hotpath pin=TestSiblingExchangeAllocs
func (h *hop) fire() {
	l, sb, env, out, reply := h.l, h.sb, h.env, h.out, h.reply
	h.esp.End()
	*h = hop{run: h.run}
	hopFree.Put(h)
	request := out && !reply && env.ReqID != 0
	switch {
	case request && l.pending[env.ReqID] == nil: // retired (timeout, circuit close) while it queued
	case request && !sb.conn.Open():
		// The circuit closed before it went out (maybe before it was registered): fail it now.
		l.obs.Metrics().Counter("lpm.request.dead_circuit").Inc()
		l.complete(l.pending[env.ReqID], wire.Envelope{}, fmt.Errorf("%w: %s circuit closed", ErrNoSibling, sb.host))
	case out && sb.conn.Open():
		//ppmlint:allow errdrop a lost request is the retry engine's, a lost reply the requester's timeout, a lost one-way tolerated
		_ = l.sendFramed(sb.conn, env, reply)
		if request || reply { // a one-way message is not accounted
			l.kern.AccountIPC(l.pid, 1, 0, env.Type.String())
		}
	case out || l.exited: // a send on a dead circuit, an arrival at an exited LPM: dropped
	case env.Type.IsResponse():
		l.handleResponse(env)
	default:
		l.handleRequest(sb, env)
	}
}

// handleResponse completes a pending request.
func (l *LPM) handleResponse(env wire.Envelope) {
	pr, ok := l.pending[env.ReqID]
	if !ok {
		return // late response after timeout; drop
	}
	rtt := l.sched.Now().Sub(pr.sentAt)
	if l.requestRTT == nil {
		l.requestRTT = l.obs.Metrics().Histogram("lpm.request_rtt")
	}
	l.requestRTT.Observe(rtt)
	l.observeOpRTT(pr.t, rtt)
	l.complete(pr, env, nil)
}

// complete takes an outstanding attempt off the books — pending entry,
// timer, handler, span — and settles the call on its outcome.
func (l *LPM) complete(pr *pendingReq, env wire.Envelope, err error) {
	delete(l.pending, pr.id)
	pr.timer.Cancel()
	l.releaseHandler(pr.handler)
	pr.span.End()
	l.settle(pr, env, err)
}

func (l *LPM) newRequest(ctx trace.Context, host string, t wire.MsgType, body []byte, op uint64, cb func(wire.Envelope, error)) *pendingReq {
	pr := reqFree.Get().(*pendingReq)
	if pr.expire == nil {
		pr.expire = pr.onTimeout
	}
	pr.l, pr.ctx, pr.host, pr.t, pr.body, pr.op, pr.cb, pr.attempt = l, ctx, host, t, body, op, cb, 1
	return pr
}

// sendRequest makes one attempt of a request over sb's circuit. A
// handler process blocks on the response (the paper's dispatcher/handler
// split) and sending pays the endpoint protocol cost on this host's CPU.
// Under a valid ctx an "lpm.request" span covers the exchange (handler
// occupancy) and the context rides in the envelope. A non-zero op rides
// as its OpID trailer, naming the logical operation across retransmissions
// so the receiver can dedup re-executions (zero: not at-most-once).
func (l *LPM) sendRequest(ctx trace.Context, sb *sibling, t wire.MsgType, body []byte, op uint64, cb func(wire.Envelope, error)) {
	l.withHandler(l.newRequest(ctx, sb.host, t, body, op, cb), sb)
}

// issue registers one attempt of pr under handler h — timer, pending
// entry, span — and queues its transmit behind the endpoint cost.
func (l *LPM) issue(pr *pendingReq, h proc.PID) {
	if l.exited {
		l.settle(pr, wire.Envelope{}, ErrExited)
		return
	}
	l.reqSeq++
	pr.id, pr.handler, pr.sentAt = l.reqSeq, h, l.sched.Now()
	if pr.ctx.Valid() { // the name is built only for a span that will exist
		pr.span = l.obs.Tracer().StartSpan(l.Host(), "lpm.request."+pr.sb.host, pr.ctx)
	}
	if pr.rctx = pr.span.Context(); !pr.rctx.Valid() {
		pr.rctx = pr.ctx
	}
	timeout := l.cfg.RequestTimeout
	if pr.t == wire.MsgBroadcast {
		timeout = l.cfg.FloodTimeout
	}
	pr.timer = l.sched.After(timeout, pr.expire)
	l.pending[pr.id] = pr
	l.sendOut(pr.sb, wire.Envelope{Type: pr.t, ReqID: pr.id, Body: pr.body, OpID: pr.op, TraceID: pr.rctx.Trace, SpanID: pr.rctx.Span}, false)
}

func (pr *pendingReq) onTimeout() {
	pr.l.obs.Notef(journal.LPMTimeout, pr.l.Host(), pr.rctx, "user=%s peer=%s type=%v op=%d", pr.l.user.Name, pr.sb.host, pr.t, pr.op)
	pr.l.complete(pr, wire.Envelope{}, fmt.Errorf("%w: %v to %s", ErrTimeout, pr.t, pr.sb.host))
}
