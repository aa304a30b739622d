package lpm

import (
	"errors"
	"fmt"

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
	if _, ok := l.siblings[host]; !ok && l.cfg.UseRelay {
		if path, ok := l.routes[host]; ok && len(path) > 1 {
			if fsb, ok := l.siblings[path[0]]; ok && fsb.conn.Open() {
				l.relayCall(ctx, host, t, body, path, cb)
				return
			}
		}
	}
	l.opSeq++
	l.callWithRetry(ctx, host, t, body, l.opSeq, 1, cb)
}

// callWithRetry runs transmission number attempt of one logical
// operation and schedules the next attempt on retryable failure.
func (l *LPM) callWithRetry(ctx trace.Context, host string, t wire.MsgType, body []byte,
	op uint64, attempt int, cb func(wire.Envelope, error)) {
	l.directCall(ctx, host, t, body, op, func(env wire.Envelope, err error) {
		if err == nil || !retryable(err) || attempt >= l.cfg.Retry.MaxAttempts || l.exited {
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
		if errors.Is(err, ErrTimeout) && attempt >= 2 {
			if sb, ok := l.siblings[host]; ok && sb.conn.Open() {
				sb.conn.Close()
			}
		}
		next := attempt + 1
		delay := l.cfg.Retry.backoff(next)
		l.obs.Notef(journal.LPMRetry, l.Host(), ctx, "user=%s op=%s type=%v attempt=%d backoff=%v",
			l.user.Name, wire.OpKey(l.Host(), l.incarnation(), op), t, next, delay)
		bsp := l.obs.Tracer().StartSpan(l.Host(), fmt.Sprintf("lpm.retry.%s", host), ctx)
		l.retryBackoffs++
		l.obs.Metrics().Gauge("lpm.retry.backoff_pending").Add(1)
		l.sched.After(delay, func() {
			l.retryBackoffs--
			l.obs.Metrics().Gauge("lpm.retry.backoff_pending").Add(-1)
			bsp.End()
			if l.exited {
				cb(wire.Envelope{}, ErrExited)
				return
			}
			if sb, ok := l.siblings[host]; !ok || !sb.conn.Open() {
				l.obs.Notef(journal.LPMRedial, l.Host(), ctx, "user=%s peer=%s reason=retry", l.user.Name, host)
			}
			l.callWithRetry(ctx, host, t, body, op, next, cb)
		})
	})
}

// directCall performs one transmission over a direct circuit, dialing
// one on demand.
func (l *LPM) directCall(ctx trace.Context, host string, t wire.MsgType, body []byte,
	op uint64, cb func(wire.Envelope, error)) {
	if sb, ok := l.siblings[host]; ok && sb.conn.Open() {
		l.sendRequest(ctx, sb, t, body, op, cb)
		return
	}
	l.ensureSibling(ctx, host, func(sb *sibling, err error) {
		if err != nil {
			cb(wire.Envelope{}, err)
			return
		}
		l.sendRequest(ctx, sb, t, body, op, cb)
	})
}

// relayCall sends one request along a learned relay route (paper §4
// quick routing), unwrapping the relayed response.
func (l *LPM) relayCall(ctx trace.Context, host string, t wire.MsgType, body []byte,
	path []string, cb func(wire.Envelope, error)) {
	fsb := l.siblings[path[0]]
	l.obs.Notef(journal.LPMRelayOrigin, l.Host(), ctx, "user=%s dest=%s via=%s", l.user.Name, host, path[0])
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
