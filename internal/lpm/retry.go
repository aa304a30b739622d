package lpm

import (
	"errors"

	"ppm/internal/journal"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The sibling-RPC reliability layer. Every point-to-point operation is
// assigned a stable operation id and driven through a retry loop: a
// timed-out or unreachable attempt tears down the suspect circuit,
// waits a deterministic capped exponential backoff on the sim
// scheduler, re-resolves the peer via its pmd (ensureSibling) and
// retransmits under the same op id. The receiving LPM's at-most-once
// filter (handleRequest) makes the retransmission safe for
// non-idempotent operations: a duplicate is answered from the reply
// cache instead of being re-executed.

// retryable reports whether an attempt's failure warrants a
// retransmission: timeouts (the reply may be lost, not the operation)
// and unreachable siblings (the circuit may come back, or a fresh one
// may be dialed). Remote application errors and bad requests are
// answers, not failures.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrNoSibling)
}

// remoteCall delivers a point-to-point request to the user's LPM on
// host and returns the response envelope. With an open circuit (or
// without UseRelay) the request travels directly under the retry
// engine; otherwise, if a relay route through a live sibling is known,
// the request is relayed along it instead of opening a new circuit.
// Relayed requests are a single attempt: the origin cannot prove a
// relayed execution did not happen, so it surfaces the error instead
// of risking a duplicate.
func (l *LPM) remoteCall(ctx trace.Context, host string, t wire.MsgType, body []byte, cb func(wire.Envelope, error)) {
	if p := l.peers[host]; l.cfg.UseRelay && p != nil && p.sb == nil && len(p.route) > 1 {
		if fsb := l.peers[p.route[0]].open(); fsb != nil {
			l.relayCall(ctx, fsb, host, t, body, p.route, cb)
			return
		}
	}
	l.opSeq++
	l.callWithRetry(ctx, host, t, body, l.opSeq, cb)
}

// callWithRetry runs one logical operation through the retry engine;
// its record carries the attempt count from one attempt to the next.
func (l *LPM) callWithRetry(ctx trace.Context, host string, t wire.MsgType, body []byte, op uint64, cb func(wire.Envelope, error)) {
	pr := l.newRequest(ctx, host, t, body, op, cb)
	pr.retry = true
	l.directCall(pr)
}

// settle ends an attempt: a retryable failure of a retried call backs
// off and goes again, anything else is the call's outcome.
func (l *LPM) settle(pr *pendingReq, env wire.Envelope, err error) {
	if !pr.retry || !retryable(err) || pr.attempt >= l.cfg.Retry.MaxAttempts || l.exited {
		cb := pr.cb
		*pr = pendingReq{expire: pr.expire} // nothing scheduled holds the record now: back to the pool
		reqFree.Put(pr)
		cb(env, err)
		return
	}
	// Tear down the circuit only when the transport is implicated.
	// On ErrNoSibling it is already gone (the retry will re-resolve
	// via pmd and dial afresh). A first timeout may be nothing more
	// than a lost or slow reply on a healthy circuit shared with
	// other pending requests — Pings, relay forward hops — and
	// closing it would fail every one of them for one slow exchange.
	// Repeated timeouts of the same operation do implicate the
	// circuit; then it is closed so the next attempt redials.
	if errors.Is(err, ErrTimeout) && pr.attempt >= 2 {
		if sb := l.peers[pr.host].open(); sb != nil {
			sb.conn.Close()
		}
	}
	pr.attempt++
	delay := l.cfg.Retry.backoff(pr.attempt)
	l.obs.Record(journal.LPMRetry, l.Host(), pr.ctx,
		journal.Retry(l.user.Name, l.Host(), l.incarnation(), pr.op, pr.t.String(), pr.attempt, delay))
	var bsp *trace.Span
	if pr.ctx.Valid() { // the name is built only for a span that will exist
		bsp = l.obs.Tracer().StartSpan(l.Host(), "lpm.retry."+pr.host, pr.ctx)
	}
	l.retryBackoffs++
	l.sched.After(delay, func() {
		l.retryBackoffs--
		bsp.End()
		if l.exited {
			l.settle(pr, wire.Envelope{}, ErrExited)
			return
		}
		if l.peers[pr.host].open() == nil {
			l.obs.Record(journal.LPMRedial, l.Host(), pr.ctx, journal.Redial(l.user.Name, pr.host, "retry"))
		}
		l.directCall(pr)
	})
}

// directCall performs one attempt over a direct circuit, dialing one
// on demand.
func (l *LPM) directCall(pr *pendingReq) {
	if sb := l.peers[pr.host].open(); sb != nil {
		l.withHandler(pr, sb)
		return
	}
	l.ensureSibling(pr.ctx, pr.host, func(sb *sibling, err error) {
		if err != nil {
			l.settle(pr, wire.Envelope{}, err)
			return
		}
		l.withHandler(pr, sb)
	})
}

// relayCall sends one request along a learned relay route (paper §4
// quick routing) through fsb, the circuit to its first hop, unwrapping
// the relayed response.
func (l *LPM) relayCall(ctx trace.Context, fsb *sibling, host string, t wire.MsgType, body []byte,
	path []string, cb func(wire.Envelope, error)) {
	l.obs.Record(journal.LPMRelayOrigin, l.Host(), ctx, journal.Relay(l.user.Name, host, path[0]))
	inner := wire.Envelope{Type: t, Body: body}
	inner.SetTrace(ctx.Trace, ctx.Span)
	rel := wire.Relay{User: l.user.Name, Dest: host, Path: path[1:], Inner: inner.Encode()}
	l.sendRequest(ctx, fsb, wire.MsgRelay, wire.Encode(&rel), 0, func(env wire.Envelope, err error) {
		var resp wire.RelayResp
		err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
		var innerResp wire.Envelope
		if err == nil {
			innerResp, err = wire.DecodeEnvelopeLogged(resp.Inner, l.obs, l.Host())
		}
		cb(innerResp, err)
	})
}
