// Package daemon implements the two system daemons the PPM's on-demand
// LPM creation relies on (the paper's Figure 2): inetd, which owns the
// well-known port, and pmd, the process manager daemon, which acts as a
// trusted name server for per-user LPMs — verifying that no LPM exists
// for the user on the host, creating one when needed, and returning the
// LPM's accept address.
//
// The paper notes that storing the pmd's table in stable storage would
// allow recovery from daemon-only crashes but was not implemented; here
// it is implemented behind the StableStorage option, with tests showing
// the failure the paper predicts when it is off.
package daemon

import (
	"errors"
	"fmt"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/journal"
	"ppm/internal/kernel"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// PortInetd is the well-known inetd port on every host.
const PortInetd uint16 = 111

// Daemon errors.
var (
	ErrNotRunning = errors.New("daemon: not running")
	ErrAuth       = errors.New("daemon: authentication failed")
)

// CPU demands of the daemon path (reference machine, zero load).
const (
	inetdForwardCost = 5 * time.Millisecond
	pmdHandleCost    = 8 * time.Millisecond
)

// LPMFactory creates (or restarts) the per-user LPM on this host and
// returns its accept address. The factory is provided by the
// environment wiring the LPM implementation to the daemons.
type LPMFactory func(user string) (simnet.Addr, error)

// Options configure the daemons on one host.
type Options struct {
	// StableStorage keeps the pmd's user->LPM table on (simulated)
	// stable storage so it survives a daemon-only crash. Off by
	// default, as in the paper.
	StableStorage bool
}

// Daemons is the per-host inetd + pmd pair.
type Daemons struct {
	hostName string
	kern     *kernel.Host
	net      *simnet.Network
	rec      *journal.Recorder // the network's, taken at Start
	dir      *auth.Directory
	trust    *auth.Trust
	factory  LPMFactory
	opts     Options

	running bool

	lpms   map[string]simnet.Addr
	stable map[string]simnet.Addr
}

// Start runs inetd and pmd on the host and begins accepting LPM
// queries on the well-known port.
func Start(kern *kernel.Host, net *simnet.Network, dir *auth.Directory,
	trust *auth.Trust, factory LPMFactory, opts Options) (*Daemons, error) {
	d := &Daemons{
		hostName: kern.Name(),
		kern:     kern,
		net:      net,
		rec:      net.Recorder(),
		dir:      dir,
		trust:    trust,
		factory:  factory,
		opts:     opts,
		lpms:     make(map[string]simnet.Addr),
		stable:   make(map[string]simnet.Addr),
	}
	if err := d.boot(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Daemons) boot() error {
	if _, err := d.kern.Spawn("inetd", "root"); err != nil {
		return fmt.Errorf("spawn inetd: %w", err)
	}
	if _, err := d.kern.Spawn("pmd", "root"); err != nil {
		return fmt.Errorf("spawn pmd: %w", err)
	}
	if err := d.net.Listen(d.hostName, PortInetd, d.accept); err != nil {
		return fmt.Errorf("inetd listen: %w", err)
	}
	d.running = true
	return nil
}

// Running reports whether the daemons are serving.
func (d *Daemons) Running() bool { return d.running }

// accept handles one connection to the well-known port (Figure 2 step
// 1 arrives here; step 2 is the internal handoff to pmd).
func (d *Daemons) accept(conn *simnet.Conn) {
	conn.SetHandler(func(b []byte) { d.onQuery(conn, b) })
}

// onQuery serves one frame on an accepted connection. It is a method
// and not a literal inside accept because accept is small enough to be
// inlined into its method-value wrapper, and in that copy of the
// literal wire.Decode is a real call: the query and the coder escaped.
func (d *Daemons) onQuery(conn *simnet.Conn, b []byte) {
	env, err := wire.DecodeEnvelopeLogged(b, d.rec, d.hostName)
	if err != nil {
		conn.Close()
		return
	}
	ctx := trace.Context{Trace: env.TraceID, Span: env.SpanID}
	if env.Type != wire.MsgLPMQuery {
		d.reply(conn, env.ReqID, wire.LPMQueryResp{OK: false, Reason: "inetd: unexpected message"}, ctx, nil)
		return
	}
	var decoded wire.LPMQuery
	if wire.Decode(env.Body, &decoded) != nil {
		d.reply(conn, env.ReqID, wire.LPMQueryResp{OK: false, Reason: "inetd: bad query"}, ctx, nil)
		return
	}
	q := decoded // the closures below capture a copy by value; the decoded-into variable would move to the heap
	from := conn.RemoteAddr().Host
	sp := d.rec.Tracer().StartSpan(d.hostName, "dispatch.pmd", ctx)
	// Step 2: inetd passes the request to pmd.
	d.kern.ExecCPU(inetdForwardCost, func() {
		d.kern.ExecCPU(pmdHandleCost, func() {
			d.handleQuery(conn, env.ReqID, from, q, ctx, sp)
		})
	})
}

// handleQuery is the pmd: the trusted name server of Figure 2 steps 3-4.
func (d *Daemons) handleQuery(conn *simnet.Conn, reqID uint64, fromHost string,
	q wire.LPMQuery, ctx trace.Context, sp *trace.Span) {
	d.rec.Record(journal.DaemonQuery, d.hostName, ctx, journal.Query(q.User, fromHost))
	if err := d.authenticate(fromHost, q); err != nil {
		d.rec.Record(journal.DaemonAuthFail, d.hostName, ctx, journal.Query(q.User, fromHost))
		d.reply(conn, reqID, wire.LPMQueryResp{OK: false, Reason: err.Error()}, ctx, sp)
		return
	}
	// An existing LPM's address is returned directly.
	if addr, ok := d.lpms[q.User]; ok {
		d.rec.Record(journal.DaemonLPMFound, d.hostName, ctx, journal.UserLPM(q.User))
		d.reply(conn, reqID, wire.LPMQueryResp{
			OK: true, AcceptHost: addr.Host, AcceptPort: addr.Port,
		}, ctx, sp)
		return
	}
	// Step 3: pmd creates the LPM — paying the fork before the reply;
	// LPM creation is "somewhat expensive in terms of message exchanges
	// and in local processing".
	d.kern.ExecCPU(calib.Fork, func() {
		if addr, ok := d.lpms[q.User]; ok { // a query inside the fork window created it
			d.rec.Record(journal.DaemonLPMFound, d.hostName, ctx, journal.UserLPM(q.User))
			d.reply(conn, reqID, wire.LPMQueryResp{OK: true, AcceptHost: addr.Host, AcceptPort: addr.Port}, ctx, sp)
			return
		}
		addr, err := d.factory(q.User)
		if err != nil {
			d.reply(conn, reqID, wire.LPMQueryResp{OK: false, Reason: fmt.Sprintf("pmd: create LPM: %v", err)}, ctx, sp)
			return
		}
		d.register(q.User, addr)
		d.rec.Record(journal.DaemonLPMCreated, d.hostName, ctx, journal.UserLPM(q.User))
		// Step 4: the accept address is returned.
		d.reply(conn, reqID, wire.LPMQueryResp{
			OK: true, AcceptHost: addr.Host, AcceptPort: addr.Port, Created: true,
		}, ctx, sp)
	})
}

func (d *Daemons) authenticate(fromHost string, q wire.LPMQuery) error {
	if err := d.dir.VerifyToken(q.User, "pmd", q.Token); err != nil {
		return fmt.Errorf("%w: %v", ErrAuth, err)
	}
	if fromHost != d.hostName {
		if err := d.trust.Check(d.hostName, fromHost); err != nil {
			return fmt.Errorf("%w: %v", ErrAuth, err)
		}
		if !d.dir.RHostAllowed(q.User, fromHost) {
			return fmt.Errorf("%w: %s has no .rhosts entry for %s", ErrAuth, q.User, fromHost)
		}
	}
	return nil
}

func (d *Daemons) reply(conn *simnet.Conn, reqID uint64, resp wire.LPMQueryResp,
	ctx trace.Context, sp *trace.Span) {
	sp.End()
	env := wire.Envelope{Type: wire.MsgLPMQueryResp, ReqID: reqID, Body: wire.Encode(&resp)}
	env.SetTrace(ctx.Trace, ctx.Span)
	//ppmlint:allow errdrop response send is fire-and-forget; a dead client just times out its query
	_ = wire.Send(conn, env, d.rec, d.hostName)
}

// register records an LPM, mirroring to stable storage when enabled.
func (d *Daemons) register(user string, addr simnet.Addr) {
	d.lpms[user] = addr
	if d.opts.StableStorage {
		d.stable[user] = addr
	}
}

// Unregister removes an LPM record (called when an LPM's time-to-live
// expires and it exits).
func (d *Daemons) Unregister(user string) {
	delete(d.lpms, user)
	delete(d.stable, user)
}

// KnownLPM returns the registered accept address for a user.
func (d *Daemons) KnownLPM(user string) (simnet.Addr, bool) {
	addr, ok := d.lpms[user]
	return addr, ok
}

// Status is the pmd's live-introspection hook: whether the daemons are
// running and how many LPM registrations the table holds.
func (d *Daemons) Status() (running bool, lpms int) {
	return d.running, len(d.lpms)
}

// QueryLPM is the client side of the Figure 2 exchange: dial the
// well-known port on a host, send an authenticated query, and deliver
// the accept address to cb. Used both by tools attaching locally and by
// LPMs creating remote siblings. Under a valid ctx the dial handshake,
// the query's transit and the pmd's handling all record spans under a
// "pmd.query" child of ctx.
func QueryLPM(net *simnet.Network, fromHost string, targetHost string,
	user *auth.User, ctx trace.Context, cb func(wire.LPMQueryResp, error)) {
	new(Query).Start(net, fromHost, targetHost, user, ctx, answerFunc(cb))
}

// An Answerer is told a pmd query's answer.
type Answerer interface {
	Answered(wire.LPMQueryResp, error)
}

type answerFunc func(wire.LPMQueryResp, error)

func (f answerFunc) Answered(resp wire.LPMQueryResp, err error) { f(resp, err) }

// A Query is one pmd query in flight and its only record: its span,
// its circuit and where its answer goes. QueryLPM allocates one; a
// caller that keeps a record per query embeds one and calls Start.
type Query struct {
	rec  *journal.Recorder
	from string
	user *auth.User
	ctx  trace.Context // the query's span's, or the caller's
	sp   *trace.Span
	conn *simnet.Conn
	to   Answerer
}

// Start is QueryLPM into q, answering to.
func (q *Query) Start(net *simnet.Network, fromHost, targetHost string,
	user *auth.User, ctx trace.Context, to Answerer) {
	*q = Query{rec: net.Recorder(), from: fromHost, user: user, to: to}
	if ctx.Valid() { // the name is built only for a span that will exist
		q.sp = q.rec.Tracer().StartSpan(fromHost, "pmd.query."+targetHost, ctx)
	}
	if q.ctx = q.sp.Context(); !q.ctx.Valid() {
		q.ctx = ctx
	}
	net.DialTo(fromHost, simnet.Addr{Host: targetHost, Port: PortInetd}, q.ctx, q)
}

func (q *Query) done(resp wire.LPMQueryResp, err error) {
	q.sp.End()
	q.to.Answered(resp, err)
}

// Dialed sends the query on its circuit to inetd.
func (q *Query) Dialed(conn *simnet.Conn, err error) {
	if err != nil {
		q.done(wire.LPMQueryResp{}, err)
		return
	}
	q.conn = conn
	conn.SetHandler(q.onReply)
	conn.SetCloseHandler(q.onClose)
	msg := wire.LPMQuery{User: q.user.Name, Token: auth.MintToken(q.user, "pmd")}
	env := wire.Envelope{Type: wire.MsgLPMQuery, ReqID: 1, Body: wire.Encode(&msg)}
	env.SetTrace(q.ctx.Trace, q.ctx.Span)
	//ppmlint:allow errdrop query send is fire-and-forget; a lost frame surfaces as the caller's timeout
	_ = wire.Send(conn, env, q.rec, q.from)
}

func (q *Query) onReply(b []byte) {
	env, err := wire.DecodeEnvelopeLogged(b, q.rec, q.from)
	if err != nil {
		q.done(wire.LPMQueryResp{}, err)
		q.conn.Close()
		return
	}
	var resp wire.LPMQueryResp
	err = wire.Decode(env.Body, &resp)
	q.conn.Close()
	q.done(resp, err)
}

func (q *Query) onClose(err error) {
	if err != nil {
		q.done(wire.LPMQueryResp{}, err)
	}
}
