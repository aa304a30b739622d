// Package lpm implements the paper's core contribution: the Local
// Process Manager. A PPM is the collection of a user's LPMs across
// hosts; each LPM is created on demand by the host's pmd, adopts the
// user's local processes through the extended ptrace call, receives
// kernel event messages over its kernel socket, serves tools over local
// circuits, maintains authenticated virtual circuits to sibling LPMs,
// acts as the creation server for the user's remote processes, floods
// broadcast requests over the low-connectivity circuit graph, preserves
// historical event information, ages out via a time-to-live interval,
// and participates in CCS-based crash recovery.
//
// Structurally each LPM mirrors the paper's implementation: a main
// dispatcher plus a pool of handler processes that block on remote
// communication; handlers are reused because process creation is
// expensive.
package lpm

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/daemon"
	"ppm/internal/detect"
	"ppm/internal/detord"
	"ppm/internal/history"
	"ppm/internal/journal"
	"ppm/internal/kernel"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/recovery"
	"ppm/internal/ring"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/status"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// LPM errors.
var (
	ErrExited     = errors.New("lpm: manager has exited")
	ErrTimeout    = errors.New("lpm: request timed out")
	ErrRemote     = errors.New("lpm: remote failure")
	ErrNoSibling  = errors.New("lpm: sibling unavailable")
	ErrBadRequest = errors.New("lpm: bad request")
)

// fault is a failed reach of a peer's LPM — a dial, a Hello, a request
// — as data: Error builds the text only when read, and Unwrap gives the
// sentinel alone. format's operands are host, then detail if set.
type fault struct {
	is           error // ErrNoSibling or ErrTimeout
	format, host string
	detail       any // a cause, a reason, a message type
}

func (f *fault) Error() string {
	args := []any{f.host, f.detail}
	if f.detail == nil {
		args = args[:1]
	}
	return f.is.Error() + ": " + fmt.Sprintf(f.format, args...)
}

func (f *fault) Unwrap() error { return f.is }

// firstErr is how a reply ladder chains on one error: the call's own
// failure wins, else the reply's decode error (decoding the empty body
// of a failed call is harmless, and its error is dropped here).
func firstErr(err, next error) error {
	if err != nil {
		return err
	}
	return next
}

// refused is the error for a reply that decoded but says the peer would
// not do it.
func refused(reason string) error { return fmt.Errorf("%w: %s", ErrRemote, reason) }

// answer folds a reply into the one error its caller acts on: the
// call's own failure wins, else the decode error of the body, else the
// peer's refusal — ok and reason point at the two fields every response
// starts with. The caller decodes into its own resp in the argument
// list: wire.Decode keeps a response off the heap only where it is
// inlined against the concrete type, which no shared function can be.
func answer(err, decodeErr error, ok *bool, reason *string) error {
	err = firstErr(err, decodeErr)
	if err == nil && !*ok {
		err = refused(*reason)
	}
	return err
}

// route is where a request goes, decided by the process it names (for
// create and history, a GPID of the host alone): the PPM's one routing
// rule, asked by the subroutine library and the tool socket alike.
type route uint8

const (
	everywhere route = iota // names nothing: every LPM, by flood
	here                    // names this host: served by this LPM
	there                   // names another host: forwarded to the sibling on it
)

func (l *LPM) routeOf(target proc.GPID) route {
	switch {
	case target.IsZero():
		return everywhere
	case target.Host == l.Host():
		return here
	}
	return there
}

// Config tunes one LPM.
type Config struct {
	// TTL is the time-to-live: how long the LPM lingers on a host with
	// no live user processes and no activity before exiting. The CCS's
	// TTL is frozen while any sibling exists.
	TTL time.Duration
	// RequestTimeout bounds direct sibling requests.
	RequestTimeout time.Duration
	// FloodTimeout bounds one level of the broadcast echo.
	FloodTimeout time.Duration
	// DedupWindow is how long old broadcast stamps are retained so
	// duplicates are not retransmitted (the paper's configuration
	// parameter).
	DedupWindow time.Duration
	// NoHandlerReuse forces a fresh handler fork for every blocking
	// request instead of reusing the handlerPool pre-forked at creation
	// (ablation).
	NoHandlerReuse bool
	// PerMessageAuth charges an authentication check on every sibling
	// message instead of once per channel, modelling the datagram-based
	// alternative the paper weighs against virtual circuits (ablation).
	PerMessageAuth bool
	// UseRelay lets direct requests to hosts without a circuit travel
	// along routes learned from broadcast replies, through intermediate
	// sibling LPMs, instead of opening a new circuit (paper §4: routes
	// recorded on broadcast data "allow quick routing of messages
	// affecting processes in topologically distant hosts").
	UseRelay bool
	// Retry tunes the sibling-RPC reliability layer.
	Retry RetryPolicy
	// Recovery configures the CCS machinery.
	Recovery recovery.Config
	// HistoryCapacity bounds the event store (0 = default).
	HistoryCapacity int

	// Linktest enables the adaptive failure detector: while a request
	// waits on a circuit, the circuit exchanges a heartbeat frame and
	// evaluates its accrual suspicion level at this period, which is
	// also the detector's least threshold. An idle circuit sends none
	// and relies on the transport's break report, as a TCP circuit
	// does. Zero disables the detector (circuit health is then
	// inferred from request timeouts only, the pre-detector behavior).
	Linktest time.Duration
}

// handlerPool is the number of handler processes pre-forked at creation.
const handlerPool = 2

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 10 * time.Minute
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.FloodTimeout == 0 {
		c.FloodTimeout = 30 * time.Second
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = time.Minute
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// opWindow is how long the at-most-once dedup state (cached replies,
// in-flight markers) must be retained: a retransmission of an
// operation can only arrive while the sender's retry loop is alive,
// which is bounded by MaxAttempts request timeouts plus a capped
// backoff between each. Sizing retention to the window — instead of
// bounding the cache by entry count — means no burst of concurrent
// operations can evict an entry whose sender may still retransmit.
// Must be called on a Config that already has its defaults.
func (c Config) opWindow() time.Duration {
	t := c.RequestTimeout
	if c.FloodTimeout > t {
		t = c.FloodTimeout
	}
	return time.Duration(c.Retry.MaxAttempts) * (t + c.Retry.Cap)
}

// RetryPolicy tunes the sibling-RPC retry engine. A failed attempt
// (timeout or unreachable sibling) is retransmitted after a capped
// exponential backoff: the first retry waits BaseBackoff, each further
// retry doubles the wait up to Cap. All delays run on the sim
// scheduler, so the schedule is deterministic for a given seed.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of transmissions of one
	// logical operation (1 = no retries). Negative disables retries
	// explicitly; zero means the default of 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retransmission.
	BaseBackoff time.Duration
	// Cap bounds the exponential growth of the backoff.
	Cap time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 200 * time.Millisecond
	}
	if p.Cap == 0 {
		p.Cap = 5 * time.Second
	}
	return p
}

// backoff returns the delay to wait before transmission number attempt
// (attempt 2 is the first retry): BaseBackoff doubled per further
// attempt, capped at Cap.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= p.Cap {
			return p.Cap
		}
	}
	if d > p.Cap {
		d = p.Cap
	}
	return d
}

// peer is all an LPM knows of one peer host. The paper makes sibling
// circuits on demand, so a peer has one lifecycle: dialed, authenticated,
// established, maybe suspected, closed and redialed. The record is made
// on first write (a dial, a Hello, a learned route) and never deleted.
type peer struct {
	host  string
	sb    *sibling             // the registered circuit, nil when none
	dial  *dial                // the establishment in flight, nil when none
	state journal.CircuitState // the circuit machine (circuitTransition)
	// known is set by registerSibling and learnRoutes, never by a dial: a
	// snapshot names a known host it did not hear from as partial.
	known bool
	route []string // the relay path learned from broadcast replies, first hop first
	// inc is the incarnation of the last Hello (0: none; a pid is never 0),
	// so a Hello from a new one purges the dead one's dedup state.
	inc       uint64
	suspicion *metrics.Gauge // the detector's, resolved on a circuit's first tick
	// lost is set when the circuit broke with an error and has not come
	// back; the redial loop (redialTick) dials it until it does.
	lost bool
	// waiting counts the requests sent to the peer and not yet
	// complete: the detector watches its circuit only while some wait.
	waiting int
}

// peer returns host's record, making it on first write.
func (l *LPM) peer(host string) *peer {
	p := l.peers[host]
	if p == nil {
		p = &peer{host: host}
		l.peers[host] = p
		l.ordered = append(l.ordered, p)
		detord.SortBy(l.ordered, func(p *peer) string { return p.host })
	}
	return p
}

// open returns the peer's registered circuit while it is open, else nil
// (as for a nil record, so a lookup that finds none makes none).
func (p *peer) open() *sibling {
	if p == nil || p.sb == nil || !p.sb.conn.Open() {
		return nil
	}
	return p.sb
}

// sibling is one authenticated circuit to a peer LPM.
type sibling struct {
	peer    *peer
	conn    *simnet.Conn
	chanKey string // the circuit's journal name (LPM.chanKey), built at registration
	// inc is the peer LPM's incarnation id, exchanged in the Hello;
	// it scopes the peer's operation identities to that LPM instance.
	inc uint64
	// openedAt is when the circuit authenticated, so status reports
	// can show per-circuit age.
	openedAt sim.Time
	// det is the circuit's accrual failure detector; suspicion is the
	// level computed at the last linktest tick (cleared by traffic).
	det       detect.Detector
	suspicion int
	// ltTimer arms tick, the linktest step bound at registration and
	// armed while a request waits; ltSeq numbers the heartbeats.
	ltTimer sim.Timer
	tick    func()
	ltSeq   uint64
}

// dial is one circuit establishment in flight (Figure 2: pmd query,
// dial, Hello) and its only record: the query is embedded, each step is
// a method, the first callback sits in cb. It is its peer's dial until
// it settles. Not pooled: a late query or dial callback finds it is not.
type dial struct {
	l     *LPM
	peer  *peer
	ctx   trace.Context // the establish span's, or the caller's
	span  *trace.Span
	query daemon.Query
	cb    func(*sibling, error)
	more  []func(*sibling, error)
}

// pendingReq is one sibling call and its only record across retries;
// expire, its timer, is bound when the record is first used.
type pendingReq struct {
	l         *LPM
	ctx, rctx trace.Context // the caller's; the attempt's (span's, else ctx)
	host      string
	sb        *sibling
	t         wire.MsgType
	body      []byte
	op, id    uint64 // operation id (0: not at-most-once); the attempt's request id
	cb        func(wire.Envelope, error)
	retry     bool // through the retry engine, else one attempt
	attempt   int
	handler   proc.PID // handler process assigned to block on this request
	timer     sim.Timer
	sentAt    sim.Time    // registration time, for the request RTT histogram
	span      *trace.Span // handler occupancy, from assignment to response
	expire    func()
}

// The records a sibling exchange and a flood hop ride (DESIGN.md §10),
// pooled per process: an LPM reaches no installation-wide object of its
// package.
var (
	reqFree   = sync.Pool{New: func() any { return new(pendingReq) }}
	hopFree   = sync.Pool{New: func() any { return new(hop) }}
	floodFree = sync.Pool{New: func() any { return new(floodHop) }}
)

// LPM is one Local Process Manager.
type LPM struct {
	user  *auth.User
	kern  *kernel.Host
	net   *simnet.Network
	sched *sim.Group // the host's boot at creation: every timer dies with it
	dir   *auth.Directory
	dmns  *daemon.Daemons
	cfg   Config

	accept simnet.Addr
	pid    proc.PID // the dispatcher's own kernel process
	myPids map[proc.PID]bool

	peers   map[string]*peer
	ordered []*peer // the same records, in host order

	reqSeq  uint64
	pending map[uint64]*pendingReq
	// arrivals holds the bodies of the sibling messages waiting for
	// their dispatch, oldest first (onSiblingMsg, hop.fire).
	arrivals []byte
	// retryBackoffs counts retry timers currently waiting out their
	// backoff delay (status-report occupancy).
	retryBackoffs int

	// opSeq assigns operation identities for the retry engine: the op id
	// stays stable across retransmissions of one logical request, while
	// reqSeq advances per transmission. It numbers operations within
	// this LPM incarnation only; the incarnation id in the op key keeps
	// instances apart.
	opSeq uint64
	// replies is the at-most-once table: the encoded reply of every
	// executed at-most-once operation, keyed by its wire.OpKey, so a
	// retransmit is answered from the cache instead of re-executing, and
	// a marker for each one still executing, so a retransmit arriving
	// before the first execution finishes is dropped. Entries are
	// retained for opWindow of virtual time, when the origin's retry
	// loop has certainly given up: a marker dropped sooner would let a
	// duplicate of an execution still in progress through.
	replies *wire.ReplyCache

	idleHandlers []proc.PID

	records map[proc.PID]proc.Info // last known info, incl. exited
	store   *history.Store

	rec *recovery.Manager

	// statusSeq numbers the status sweeps this LPM originates, so the
	// journal (and its audit) can tie each report to its sweep.
	statusSeq uint64
	// rtts accumulates request round-trip latencies per op type for the
	// status report's SLO percentiles.
	rtts [wire.NumOps]*opRTT
	// statusScratch is the reusable report the LPM fills when serving a
	// status request (local rebuilds allocate nothing at steady state),
	// and decodes each of its sweeps' flooded reports into.
	statusScratch status.Report
	sorted        []string // sortedList's scratch copy of the hosts it sorts

	floodSeq uint64
	// seen holds the broadcast stamps of the last DedupWindow.
	seen *ring.Window[stampID, struct{}]

	lastActivity sim.Time
	ttlTimer     sim.Timer
	redialTmr    sim.Timer // the next redial pass, armed while a peer is lost
	exited       bool

	// obs is the installation's recorder, taken from the network at
	// construction (nil when the network carries none: every fact
	// stated, counter bumped and span started below is then a no-op).
	// Sites that journal under the ambient operation pass
	// l.obs.Tracer().Active() as their context.
	obs *journal.Recorder
	// The LPM's own per-request and per-hop counters and histogram, resolved on first fire.
	floodForwarded, requestsServed, handlerReuses, kernelEvents *metrics.Counter
	requestRTT                                                  *metrics.Histogram
	circuits                                                    struct { // the counts circuitTransition derives from its steps
		opened, closed, suspects, detectorCloses *metrics.Counter
		open                                     *metrics.Gauge
	}
}

// New creates and starts an LPM for user on the host, listening on
// acceptPort, with the user's CCS sites. It is normally invoked by the
// pmd's LPM factory.
func New(kern *kernel.Host, net *simnet.Network, dir *auth.Directory, dmns *daemon.Daemons,
	user *auth.User, acceptPort uint16, cfg Config, sites recovery.Sites) (*LPM, error) {
	cfg = cfg.withDefaults()
	l := &LPM{
		user:    user,
		kern:    kern,
		net:     net,
		sched:   kern.Boot(),
		dir:     dir,
		dmns:    dmns,
		cfg:     cfg,
		accept:  simnet.Addr{Host: kern.Name(), Port: acceptPort},
		myPids:  make(map[proc.PID]bool),
		peers:   make(map[string]*peer),
		pending: make(map[uint64]*pendingReq),
		replies: wire.NewReplyCache(cfg.opWindow()),
		records: make(map[proc.PID]proc.Info),
		store:   history.NewStore(cfg.HistoryCapacity, user.Names),
		seen:    ring.NewWindow[stampID, struct{}](cfg.DedupWindow),
		obs:     net.Recorder(),
	}
	p, err := kern.Spawn("lpm", user.Name)
	if err != nil {
		return nil, fmt.Errorf("spawn lpm: %w", err)
	}
	l.pid = p.PID
	l.myPids[p.PID] = true
	for i := 0; i < handlerPool && !cfg.NoHandlerReuse; i++ {
		h, err := kern.Fork(l.pid, "lpm-handler")
		if err != nil {
			return nil, fmt.Errorf("prefork handler: %w", err)
		}
		l.myPids[h.PID] = true
		l.idleHandlers = append(l.idleHandlers, h.PID)
	}
	if err := net.Listen(l.accept.Host, l.accept.Port, l.acceptConn); err != nil {
		return nil, fmt.Errorf("lpm listen: %w", err)
	}
	kern.SetEventSink(user.Name, l.onKernelEvent)
	l.rec = recovery.New((*recEnv)(l), cfg.Recovery, user.Name, sites)
	l.lastActivity = l.sched.Now()
	l.armTTL()
	return l, nil
}

// Accept returns the LPM's accept address.
func (l *LPM) Accept() simnet.Addr { return l.accept }

// Host returns the host name the LPM runs on.
func (l *LPM) Host() string { return l.kern.Name() }

// incarnation identifies this LPM instance in operation identities:
// the dispatcher's kernel pid, which the per-host pid counter never
// reuses (it survives crashes). A restarted or recreated LPM — whose
// opSeq restarts from zero — therefore mints op keys disjoint from its
// predecessor's, and surviving peers can never answer its fresh
// operations from a stale reply cache.
func (l *LPM) incarnation() uint64 { return uint64(l.pid) }

// User returns the owning user's name.
func (l *LPM) User() string { return l.user.Name }

// Exited reports whether the LPM has shut down.
func (l *LPM) Exited() bool { return l.exited }

// Recovery exposes the CCS state machine.
func (l *LPM) Recovery() *recovery.Manager { return l.rec }

// History exposes the preserved event store (tool access).
func (l *LPM) History() *history.Store { return l.store }

// touch records activity for the TTL logic.
func (l *LPM) touch() { l.lastActivity = l.sched.Now() }

// chanKey names a sibling circuit "dialer->acceptor" so both endpoints
// journal the same channel identity: the acceptor's end of the circuit
// is its accept address, so whichever side this is, orienting the pair
// away from the accept address yields the dialer-first form.
func (l *LPM) chanKey(conn *simnet.Conn) string {
	local, remote := conn.LocalAddr(), conn.RemoteAddr()
	if local == l.accept {
		local, remote = remote, local
	}
	// "%s:%d->%s:%d", built in one buffer.
	b := strconv.AppendUint(append(append(make([]byte, 0, 48), local.Host...), ':'), uint64(local.Port), 10)
	b = strconv.AppendUint(append(append(append(b, "->"...), remote.Host...), ':'), uint64(remote.Port), 10)
	return string(b)
}

// withTraceCtx runs fn with ctx installed as the tracer's active
// context, so kernel events emitted synchronously inside fn (signals,
// forks, execs) attach to the trace. Safe under the single-goroutine
// scheduler; a nil or disabled tracer makes this a plain call.
func (l *LPM) withTraceCtx(ctx trace.Context, fn func()) {
	// ctx is reused to hold the displaced context: with a variable more
	// the function is past the inlining budget, and a caller whose fn
	// assigns a captured result (floodHop.run's) pays a heap move for it.
	tracer := l.obs.Tracer()
	ctx = tracer.Exchange(ctx)
	fn()
	tracer.Exchange(ctx)
}

// --- time-to-live ---

func (l *LPM) armTTL() {
	if l.exited {
		return
	}
	l.ttlTimer.Cancel()
	l.ttlTimer = l.sched.After(l.cfg.TTL, l.checkTTL)
}

// liveProcs appends to dst the user's live processes here, in pid
// order, less the LPM's own dispatcher and handlers.
func (l *LPM) liveProcs(dst []proc.Info) []proc.Info {
	start := len(dst)
	all := l.kern.AppendProcessesOf(dst, l.user.Name)
	dst = all[:start]
	for _, p := range all[start:] {
		if !l.myPids[p.ID.PID] && (p.State == proc.Running || p.State == proc.Stopped) {
			dst = append(dst, p)
		}
	}
	return dst
}

func (l *LPM) checkTTL() {
	if l.exited {
		return
	}
	// The CCS does not decrement its time-to-live while any sibling
	// LPM exists in the networked system.
	if l.rec.IsCCS() && slices.ContainsFunc(l.ordered, func(p *peer) bool { return p.open() != nil }) {
		l.armTTL()
		return
	}
	idleFor := l.sched.Now().Sub(l.lastActivity)
	if len(l.liveProcs(nil)) > 0 || idleFor < l.cfg.TTL {
		l.armTTL()
		return
	}
	l.Exit()
}

// Exit shuts the LPM down: deregisters from the pmd, closes circuits,
// stops recovery, and terminates the dispatcher and handler processes.
func (l *LPM) Exit() {
	if l.exited {
		return
	}
	l.exited = true
	l.obs.Metrics().Counter("lpm.exits").Inc()
	l.ttlTimer.Cancel()
	l.rec.Stop()
	l.redialTmr.Cancel()
	l.kern.SetEventSink(l.user.Name, nil)
	l.net.CloseListen(l.accept.Host, l.accept.Port)
	if l.dmns != nil {
		l.dmns.Unregister(l.user.Name)
	}
	// Tear down in deterministic order: siblings by host, pending
	// requests by id, own processes by pid — each step schedules events.
	for _, p := range l.ordered {
		if sb := p.sb; sb != nil {
			sb.ltTimer.Cancel()
			l.circuitTransition(p, sb.chanKey, journal.CircuitClosed, "exit", 0)
			sb.conn.Close()
			p.sb = nil
		}
	}
	ids := detord.Keys(l.pending)
	for _, id := range ids { // dropped, not recycled
		pr := l.pending[id]
		pr.timer.Cancel()
		pr.span.End()
		delete(l.pending, id)
		pr.cb(wire.Envelope{}, ErrExited)
	}
	pids := detord.Keys(l.myPids)
	for _, pid := range pids {
		if p, err := l.kern.Lookup(pid); err == nil &&
			(p.State == proc.Running || p.State == proc.Stopped) {
			//ppmlint:allow errdrop teardown: the process was verified live by the Lookup above
			_ = l.kern.Exit(pid, 0)
		}
	}
}

// terminateAll is the time-to-die action: kill the user's local
// processes and exit.
func (l *LPM) terminateAll() {
	for _, p := range l.liveProcs(nil) {
		//ppmlint:allow errdrop time-to-die sweep: liveProcs' state guard makes SIGKILL infallible here
		_ = l.kern.Signal(p.ID.PID, proc.SIGKILL)
	}
	l.Exit()
}

// --- kernel events (the kernel socket) ---

func (l *LPM) onKernelEvent(ev proc.Event) {
	if l.exited {
		return
	}
	l.obs.Metrics().Handle(&l.kernelEvents, "lpm.kernel_events").Inc()
	l.touch()
	l.store.Append(ev)
	switch ev.Kind {
	case proc.EvExit:
		if info, err := l.kern.Info(ev.Proc.PID); err == nil {
			l.records[ev.Proc.PID] = info
			l.store.RecordExit(info)
			l.forwardExit(ev, info)
		}
	case proc.EvFork:
		// Track the new child: it inherited the trace flags.
		if info, err := l.kern.Info(ev.Child.PID); err == nil {
			l.records[ev.Child.PID] = info
		}
	default:
		if info, err := l.kern.Info(ev.Proc.PID); err == nil {
			l.records[ev.Proc.PID] = info
		}
	}
}

// forwardExit notifies a remotely created process's home LPM of its
// exit. The kernel event lands here, at the LPM of the host the
// process ran on — but watches on the process were declared at its
// home LPM (the logical parent's host), whose history store would
// otherwise never see the exit. The notification rides the retry
// engine as an at-most-once operation, so a retransmitted ProcExit
// can never fire home watches twice.
func (l *LPM) forwardExit(ev proc.Event, info proc.Info) {
	home := info.Parent.Host
	if home == "" || home == l.Host() {
		return
	}
	l.obs.Record(journal.LPMExitForward, l.Host(), l.obs.Tracer().Active(),
		journal.ExitForward(l.user.Name, info.ID.Host, int32(info.ID.PID), home))
	body := wire.Encode(&wire.ProcExit{User: l.user.Name, Event: ev, Info: info})
	l.remoteCall(trace.Context{}, home, wire.MsgProcExit, body, func(wire.Envelope, error) {})
}

// --- handler pool ---

// withHandler assigns a handler process to a blocking request, forking
// one if the pool is empty (or reuse is disabled), then issues pr to sb
// under it: at once for an idle handler, after the fork otherwise.
func (l *LPM) withHandler(pr *pendingReq, sb *sibling) {
	pr.sb = sb
	if !l.cfg.NoHandlerReuse && len(l.idleHandlers) > 0 {
		h := l.idleHandlers[len(l.idleHandlers)-1]
		l.idleHandlers = l.idleHandlers[:len(l.idleHandlers)-1]
		l.obs.Metrics().Handle(&l.handlerReuses, "lpm.handler.reuses").Inc()
		l.issue(pr, h)
		return
	}
	l.obs.Metrics().Counter("lpm.handler.forks").Inc()
	l.kern.ExecCPU(calib.HandlerFork, func() {
		h, err := l.kern.Fork(l.pid, "lpm-handler")
		if err != nil {
			l.issue(pr, 0)
			return
		}
		l.myPids[h.PID] = true
		l.issue(pr, h.PID)
	})
}

// releaseHandler returns a handler to the pool (or retires it when
// reuse is disabled).
func (l *LPM) releaseHandler(h proc.PID) {
	if h == 0 {
		return
	}
	if l.cfg.NoHandlerReuse {
		if p, err := l.kern.Lookup(h); err == nil && p.State == proc.Running {
			//ppmlint:allow errdrop handler retirement: the process was verified running on the line above
			_ = l.kern.Exit(h, 0)
		}
		delete(l.myPids, h)
		return
	}
	l.idleHandlers = append(l.idleHandlers, h)
}

// --- recovery Env implementation ---

// recEnv adapts *LPM to recovery.Env without polluting the LPM method
// set.
type recEnv LPM

func (r *recEnv) lpm() *LPM { return (*LPM)(r) }

func (r *recEnv) HostName() string { return r.lpm().Host() }

func (r *recEnv) After(d time.Duration, fn func()) sim.Timer {
	return r.lpm().sched.After(d, fn)
}

func (r *recEnv) ProbeHost(host string, cb func(bool)) {
	l := r.lpm()
	if l.exited {
		cb(false)
		return
	}
	l.obs.Metrics().Counter("lpm.recovery.probes").Inc()
	daemon.QueryLPM(l.net, l.Host(), host, l.user, trace.Context{}, func(resp wire.LPMQueryResp, err error) {
		cb(err == nil && resp.OK)
	})
}

func (r *recEnv) ConnectCCS(host string, cb func(bool)) {
	l := r.lpm()
	if host == l.Host() {
		cb(true)
		return
	}
	l.ensureSibling(trace.Context{}, host, func(sb *sibling, err error) {
		cb(err == nil && sb != nil)
	})
}

func (r *recEnv) AnnounceCCS(host string) {
	l := r.lpm()
	l.obs.Metrics().Counter("lpm.recovery.ccs_announcements").Inc()
	body := wire.Encode(&wire.CCSUpdate{CCSHost: host})
	for _, p := range l.ordered {
		if sb := p.open(); sb != nil {
			l.sendOut(sb, wire.Envelope{Type: wire.MsgCCSUpdate, Body: body})
		}
	}
}

func (r *recEnv) TerminateAll() {
	r.lpm().obs.Metrics().Counter("lpm.recovery.terminations").Inc()
	r.lpm().terminateAll()
}
