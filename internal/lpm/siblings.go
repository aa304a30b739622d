package lpm

import (
	"fmt"
	"slices"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/detect"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/recovery"
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
	l.execSpan(ctx, "dispatch.endpoint", calib.SiblingEndpoint, func() {
		l.handleHello(conn, env.ReqID, hello, ctx)
	})
}

func (l *LPM) handleHello(conn *simnet.Conn, reqID uint64, hello wire.Hello, ctx trace.Context) {
	reject := func(reason string) {
		l.obs.Record(journal.LPMSiblingReject, l.Host(), ctx, journal.SiblingReject(hello.FromHost, reason))
		body := wire.Encode(&wire.HelloResp{OK: false, Reason: reason})
		//ppmlint:allow errdrop rejection notice is best-effort; the circuit closes right after either way
		_ = wire.Send(conn, wire.Envelope{Type: wire.MsgHelloResp, ReqID: reqID, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}, l.obs, l.Host())
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
	if p := l.peers[hello.FromHost]; p != nil && p.dial != nil && l.Host() < hello.FromHost {
		l.obs.Metrics().Counter("lpm.crossdial.rejects").Inc()
		reject("cross-dial")
		return
	}
	// Authentication happens exactly once, here, at channel creation;
	// the audit invariant holds the journal to that.
	l.obs.Record(journal.LPMSiblingAuth, l.Host(), ctx, journal.SiblingAuth(hello.User, l.chanKey(conn), hello.FromHost))
	body := wire.Encode(&wire.HelloResp{OK: true, Inc: l.incarnation()})
	respEnv := wire.Envelope{Type: wire.MsgHelloResp, ReqID: reqID, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}
	if hello.FromHost == l.Host() {
		// A local tool connecting to the accept socket (Figure 4's tool
		// sockets), not a sibling.
		conn.SetHandler(func(b []byte) { l.onToolMsg(conn, b) })
		conn.SetCloseHandler(func(error) {})
	} else {
		l.registerSibling(l.peer(hello.FromHost), conn, hello.Inc)
		if hello.CCSHost != "" {
			l.rec.OnContact(hello.CCSHost)
		}
	}
	//ppmlint:allow errdrop send failure surfaces through the circuit's close handler, not this return
	_ = wire.Send(conn, respEnv, l.obs, l.Host())
}

// registerSibling installs an authenticated circuit to p and returns
// it. inc is the peer LPM's incarnation from the Hello exchange: when it
// differs from the one last seen, the peer's LPM was recreated (the
// host restarted, or the LPM exited and a fresh one was spawned) and
// every piece of dedup state scoped to the predecessor — cached
// replies and in-flight markers — is purged. The predecessor's op
// numbering can never be spoken again, so the entries could only ever
// cause a fresh operation to be wrongly answered from a stale cache.
func (l *LPM) registerSibling(p *peer, conn *simnet.Conn, inc uint64) *sibling {
	if p.inc != 0 && p.inc != inc {
		l.replies.Purge(p.host, p.inc)
	}
	p.inc = inc
	if old := p.open(); old != nil && old.conn != conn {
		// A replacement circuit supersedes a live one: step the
		// machine through Closed first so the pair never shows two
		// Established circuits, then close (the close handler's own
		// transition no-ops).
		l.circuitTransition(p, old.chanKey, journal.CircuitClosed, "superseded", 0)
		old.conn.Close()
	}
	key := l.chanKey(conn)
	// An inbound Hello reaches here without passing through the
	// Dialing leg; normalize onto Authenticating before stepping to
	// Established so the journaled walk follows the legal table from
	// whichever state the machine was in.
	if p.state != journal.CircuitAuthenticating {
		l.circuitTransition(p, key, journal.CircuitAuthenticating, "hello-in", 0)
	}
	sb := &sibling{peer: p, conn: conn, chanKey: key, inc: inc, openedAt: l.sched.Now()}
	sb.det = detect.New(detect.Config{}, l.sched.Now().Duration())
	p.sb, p.known = sb, true
	reason := "auth-client"
	if conn.LocalAddr() == l.accept {
		reason = "auth-server"
	}
	l.circuitTransition(p, key, journal.CircuitEstablished, reason, 0)
	conn.SetHandler(func(b []byte) { l.onSiblingMsg(sb, b) })
	conn.SetCloseHandler(func(err error) { l.onSiblingClosed(sb, err) })
	if l.cfg.Linktest > 0 {
		sb.tick = func() { l.linktestTick(sb) }
		l.scheduleLinktest(sb)
	}
	// An inbound establishment serves any dial in flight to the same
	// host: the queued callbacks get this circuit instead of waiting
	// for (or cross-dialing against) the outbound attempt.
	if p.dial != nil {
		p.dial.settle(sb, nil)
	}
	p.lost = false
	l.touch()
	return sb
}

func (l *LPM) onSiblingClosed(sb *sibling, err error) {
	p := sb.peer
	if p.sb == sb {
		p.sb = nil
		sb.ltTimer.Cancel()
		reason := "close"
		if err != nil {
			reason = "peer-lost"
		}
		l.circuitTransition(p, sb.chanKey, journal.CircuitClosed, reason, 0)
	}
	// Fail outstanding requests to that host, oldest first (map order
	// would let error callbacks race each other across identical runs).
	for _, id := range detord.Keys(l.pending) {
		if pr := l.pending[id]; pr != nil && pr.host == p.host {
			l.complete(pr, wire.Envelope{}, &fault{ErrNoSibling, "%s", p.host, nil})
		}
	}
	if err != nil && !l.exited {
		l.obs.Metrics().Counter("lpm.recovery.siblings_lost").Inc()
		p.lost = true
		l.scheduleRedial()
		l.rec.OnSiblingLost(p.host)
	}
}

// --- the redial loop ---

// redialEvery is how often lost sibling circuits are redialed, so a
// healed partition re-knits the circuit graph instead of only reseeking
// the CCS.
const redialEvery = 10 * time.Second

// scheduleRedial arms the redial timer if it is not already running.
func (l *LPM) scheduleRedial() {
	if l.redialTmr.Fired() {
		l.redialTmr = l.sched.After(redialEvery, l.redialTick)
	}
}

// A redialPass dials the peers lost when its tick fired, one at a time
// in host order. Passes can overlap (a loss during one arms the next),
// so each keeps its own list.
type redialPass struct {
	l    *LPM
	lost []*peer               // from the one being dialed on
	step func(*sibling, error) // bound once per pass
}

// redialTick starts a pass over the peers lost now.
func (l *LPM) redialTick() {
	var lost []*peer
	for _, p := range l.ordered {
		if p.lost {
			lost = append(lost, p)
		}
	}
	if len(lost) > 0 {
		r := &redialPass{l: l, lost: lost}
		r.step = func(sb *sibling, err error) {
			if err == nil && sb != nil {
				sb.peer.lost = false
			}
			r.lost = r.lost[1:]
			r.next()
		}
		r.next()
	}
}

// next dials the first peer of the list that is still lost. One whose
// circuit is open (the break was reported for a circuit no longer the
// peer's) leaves the loop undialed. Peers still lost after the pass get
// another a redialEvery later.
func (r *redialPass) next() {
	l := r.l
	if l.exited {
		return
	}
	for ; len(r.lost) > 0; r.lost = r.lost[1:] {
		p := r.lost[0]
		if p.lost && p.open() == nil {
			l.obs.Record(journal.LPMRedial, l.Host(), l.obs.Tracer().Active(), journal.Redial(l.user.Name, p.host, "recovery"))
			l.ensureSibling(trace.Context{}, p.host, r.step)
			return
		}
		p.lost = false
	}
	if slices.ContainsFunc(l.ordered, func(p *peer) bool { return p.lost }) {
		l.scheduleRedial()
	}
}

// --- outbound circuits ---

// ensureSibling returns an authenticated circuit to the user's LPM on
// host, creating the remote LPM (via its pmd) and the circuit on
// demand. Concurrent requests for the same host coalesce. The pmd
// query, the dial handshake and the Hello exchange all record spans
// under a "circuit.establish" child of ctx.
//
//ppmlint:hotpath pin=TestUnreachableDialAllocs
func (l *LPM) ensureSibling(ctx trace.Context, host string, cb func(*sibling, error)) {
	if l.exited {
		cb(nil, ErrExited)
		return
	}
	if host == l.Host() {
		cb(nil, fmt.Errorf("%w: self-connection", ErrBadRequest))
		return
	}
	p := l.peer(host)
	if sb := p.open(); sb != nil {
		l.sched.Defer(func() { cb(sb, nil) })
		return
	}
	if p.dial != nil {
		p.dial.more = append(p.dial.more, cb)
		return
	}
	d := &dial{l: l, peer: p, cb: cb}
	if ctx.Valid() { // the name is built only for a span that will exist
		d.span = l.obs.Tracer().StartSpan(l.Host(), "circuit.establish."+host, ctx)
	}
	if d.ctx = d.span.Context(); !d.ctx.Valid() {
		d.ctx = ctx
	}
	p.dial = d
	l.circuitTransition(p, "-", journal.CircuitDialing, "dial", 0)
	d.query.Start(l.net, l.Host(), host, l.user, d.ctx, d)
}

// Answered dials the accept address the pmd answered with.
func (d *dial) Answered(resp wire.LPMQueryResp, err error) {
	switch l := d.l; {
	case d.peer.dial != d: // an inbound circuit settled the dial meanwhile
	case l.exited:
		d.settle(nil, ErrExited)
	case err != nil:
		d.settle(nil, &fault{ErrNoSibling, "query %s: %v", d.peer.host, err})
	case !resp.OK:
		d.settle(nil, &fault{ErrNoSibling, "pmd on %s: %s", d.peer.host, resp.Reason})
	default:
		l.net.DialTo(l.Host(), simnet.Addr{Host: resp.AcceptHost, Port: resp.AcceptPort}, d.ctx, d)
	}
}

// Dialed says Hello on the circuit to the accept address.
func (d *dial) Dialed(conn *simnet.Conn, err error) {
	switch {
	case err != nil:
		d.settle(nil, &fault{ErrNoSibling, "dial %s: %v", d.peer.host, err})
	case d.peer.dial != d:
		conn.Close()
	default:
		d.l.helloTo(d.ctx, d.peer, conn, d.settle)
	}
}

// settle settles the dial exactly once — through its own error paths,
// the dialed circuit's Hello, or an inbound circuit landing first
// (registerSibling). Whichever runs first ends the establish span and
// drains the callbacks; later calls no-op.
func (d *dial) settle(sb *sibling, err error) {
	if d.peer.dial != d {
		return
	}
	d.peer.dial = nil
	d.span.End()
	if err != nil {
		d.l.circuitTransition(d.peer, "-", journal.CircuitClosed, "dial-failed", 0)
	}
	d.cb(sb, err)
	for _, f := range d.more {
		f(sb, err)
	}
}

// helloTo authenticates a freshly dialed circuit to p.
func (l *LPM) helloTo(ctx trace.Context, p *peer, conn *simnet.Conn, finish func(*sibling, error)) {
	l.circuitTransition(p, l.chanKey(conn), journal.CircuitAuthenticating, "hello", 0)
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
			finish(nil, &fault{ErrNoSibling, "bad hello reply from %s", p.host, nil})
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
				// registerSibling. Keep the dial open for it, bounded by
				// a safety timeout in case the winning circuit dies
				// mid-handshake.
				l.obs.Metrics().Counter("lpm.crossdial.yields").Inc()
				l.sched.After(l.cfg.RequestTimeout, func() {
					finish(nil, &fault{ErrNoSibling, "cross-dial yield to %s never completed", p.host, nil})
				})
				return
			}
			finish(nil, &fault{ErrNoSibling, "%s rejected hello: %s", p.host, resp.Reason})
			return
		}
		inc := resp.Inc // copied out: capturing the decoded-into resp would move it to the heap
		l.execSpan(ctx, "dispatch.endpoint", calib.SiblingEndpoint, func() {
			if !conn.Open() {
				// Closed while the registration sat in the CPU queue
				// (the close handler already no-opped: answered is set).
				// Registering it would park a dead conn in Established.
				l.obs.Metrics().Counter("lpm.hello.dead_conn").Inc()
				finish(nil, &fault{ErrNoSibling, "circuit to %s closed during hello", p.host, nil})
				return
			}
			finish(l.registerSibling(p, conn, inc), nil)
		})
	})
	conn.SetCloseHandler(func(err error) {
		if !answered {
			settle()
			finish(nil, &fault{ErrNoSibling, "circuit to %s broke during hello", p.host, nil})
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
		finish(nil, &fault{ErrNoSibling, "hello to %s timed out", p.host, nil})
	})
	l.execSpan(ctx, "dispatch.endpoint", calib.SiblingEndpoint, func() {
		//ppmlint:allow errdrop a lost Hello is retried by the redial engine; failure surfaces on circuit close
		_ = wire.Send(conn, wire.Envelope{Type: wire.MsgHello, ReqID: 0, Body: body, TraceID: ctx.Trace, SpanID: ctx.Span}, l.obs, l.Host())
	})
}

// --- message plumbing ---

// onSiblingMsg routes a message arriving on an authenticated circuit.
// Its body moves from the delivery buffer, which simnet reuses once
// this returns, to the end of l.arrivals, which its hop borrows until
// the dispatch returns (DESIGN.md §10 "Frames cross one way").
func (l *LPM) onSiblingMsg(sb *sibling, b []byte) {
	if l.exited {
		return
	}
	env, err := wire.DecodeEnvelopeLogged(b, l.obs, l.Host())
	if err != nil {
		return
	}
	start := len(l.arrivals)
	l.arrivals = append(l.arrivals, env.Body...)
	end := len(l.arrivals)
	env.Body = l.arrivals[start:end:end]
	l.touch()
	l.observeArrival(sb)
	cost := env.Type.EndpointCost()
	if l.cfg.PerMessageAuth {
		// The datagram-style scheme authenticates every message instead
		// of once per channel.
		cost += calib.AuthCheck
	}
	h := l.newHop(sb, env, false)
	h.end = end
	l.kern.ExecCPU(cost, h.run)
}

// sendOut queues env for sb's circuit behind its endpoint cost: a reply
// (a response type), a request attempt, or (ReqID 0) a one-way message.
func (l *LPM) sendOut(sb *sibling, env wire.Envelope) {
	l.kern.ExecCPU(env.Type.EndpointCost(), l.newHop(sb, env, true).run)
}

// hop is one sibling message waiting for its endpoint CPU slot under a
// "dispatch.endpoint" span: an arrival, or (out) a message to send. A
// request's hop holds only its id, so the request's record may be
// reused while the hop queues. Its CPU slot is the boot's: a crash
// drops it.
type hop struct {
	l     *LPM
	sb    *sibling
	env   wire.Envelope
	out   bool
	end   int  // an arrival's: where its body ends in l.arrivals
	reuse bool // an out-hop's: its body goes back to the reply cache once sent
	esp   *trace.Span
	run   func() // fire, bound when the record is first used
}

func (l *LPM) newHop(sb *sibling, env wire.Envelope, out bool) *hop {
	h := hopFree.Get().(*hop)
	if h.run == nil {
		h.run = h.fire
	}
	h.l, h.sb, h.env, h.out = l, sb, env, out
	h.esp = l.obs.Tracer().StartSpan(l.Host(), "dispatch.endpoint", trace.Context{Trace: env.TraceID, Span: env.SpanID})
	return h
}

// fire does the hop's work once its endpoint cost is paid, the record
// back in the pool first (that work may take another). An arrival's
// body is dead once its dispatch returns; when it was the newest, no
// arrival is queued behind it, and l.arrivals is emptied for reuse.
// Hops fire in arrival order (the boot's CPU FIFO), and those a crash
// ended never fire: their bytes stay only until the next newest fires.
//
//ppmlint:hotpath pin=TestSiblingExchangeAllocs
func (h *hop) fire() {
	l, sb, env, out, end, reuse := h.l, h.sb, h.env, h.out, h.end, h.reuse
	h.esp.End()
	*h = hop{run: h.run}
	hopFree.Put(h)
	reply := out && env.Type.IsResponse()
	request := out && !reply && env.ReqID != 0
	switch {
	case request && l.pending[env.ReqID] == nil: // retired (timeout, circuit close) while it queued
	case request && !sb.conn.Open():
		// The circuit closed before it went out (maybe before it was registered): fail it now.
		l.obs.Metrics().Counter("lpm.request.dead_circuit").Inc()
		l.complete(l.pending[env.ReqID], wire.Envelope{}, &fault{ErrNoSibling, "%s circuit closed", sb.peer.host, nil})
	case out && sb.conn.Open():
		//ppmlint:allow errdrop a lost request is the retry engine's, a lost reply the requester's timeout, a lost one-way tolerated
		_ = wire.Send(sb.conn, env, l.obs, l.Host())
		if request || reply { // a one-way message is not accounted
			l.kern.AccountIPC(l.pid, 1, 0, env.Type.String())
		}
	case out || l.exited: // a send on a dead circuit, an arrival at an exited LPM: dropped
	case env.Type.IsResponse():
		l.handleResponse(env)
	default:
		l.handleRequest(sb, env)
	}
	if out {
		if reuse {
			l.replies.Reuse(env.Body)
		}
		return
	}
	if scribbleArrivals {
		for i := range env.Body {
			env.Body[i] = 0xa5
		}
	}
	if end == len(l.arrivals) {
		l.arrivals = l.arrivals[:0]
	}
}

// scribbleArrivals, set only by tests, overwrites each arrival's body
// once its dispatch returns: whatever kept it past then reads garbage.
var scribbleArrivals bool

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
	l.withHandler(l.newRequest(ctx, sb.peer.host, t, body, op, cb), sb)
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
		pr.span = l.obs.Tracer().StartSpan(l.Host(), "lpm.request."+pr.sb.peer.host, pr.ctx)
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
	l.sendOut(pr.sb, wire.Envelope{Type: pr.t, ReqID: pr.id, Body: pr.body, OpID: pr.op, TraceID: pr.rctx.Trace, SpanID: pr.rctx.Span})
}

func (pr *pendingReq) onTimeout() {
	pr.l.obs.Record(journal.LPMTimeout, pr.l.Host(), pr.rctx, journal.Timeout(pr.l.user.Name, pr.sb.peer.host, pr.t.String(), pr.op))
	pr.l.complete(pr, wire.Envelope{}, &fault{ErrTimeout, "%[2]v to %[1]s", pr.sb.peer.host, pr.t})
}
