// Package simnet simulates the 1986 internetwork the PPM runs on: hosts
// attached to Ethernet segments joined by gateways, datagram delivery,
// and reliable stream circuits (the TCP virtual circuits the paper's
// sibling LPMs communicate over).
//
// Delays are charged per physical hop (segment traversal) plus
// per-byte serialization, using the constants in package calib. The
// network supports the failure modes of the paper's Section 5: host
// crashes, and network partitions that split the internetwork into
// isolated connected components. Circuits crossing a failure break
// visibly after a detection delay, exactly the signal the PPM's crash
// recovery machinery is driven by.
package simnet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ppm/internal/calib"
	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/sim"
	"ppm/internal/trace"
)

// Network errors.
var (
	ErrUnknownHost   = errors.New("simnet: unknown host")
	ErrHostDown      = errors.New("simnet: host down")
	ErrUnreachable   = errors.New("simnet: unreachable")
	ErrNoListener    = errors.New("simnet: connection refused")
	ErrConnClosed    = errors.New("simnet: connection closed")
	ErrPeerLost      = errors.New("simnet: peer lost")
	ErrPortInUse     = errors.New("simnet: port in use")
	ErrDuplicateHost = errors.New("simnet: duplicate host")
)

// Addr is a network endpoint: a host name and a port.
type Addr struct {
	Host string
	Port uint16
}

// String renders host:port.
func (a Addr) String() string {
	var buf [32]byte
	return string(strconv.AppendUint(append(append(buf[:0], a.Host...), ':'), uint64(a.Port), 10))
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Host == "" && a.Port == 0 }

// Options configure a Network.
type Options struct {
	// BreakDetect is how long a circuit endpoint takes to notice that
	// its peer vanished (crash or partition). Zero means 1 second.
	BreakDetect time.Duration
}

func (o Options) withDefaults() Options {
	if o.BreakDetect == 0 {
		o.BreakDetect = time.Second
	}
	return o
}

// node is one host's network presence.
type node struct {
	name      string
	up        bool
	group     int // partition group; hosts communicate iff equal
	segments  []string
	listeners map[uint16]func(*Conn)
	dgram     map[uint16]func(from Addr, payload []byte)
	nextPort  uint16
	conns     map[*Conn]bool
}

// Network is the simulated internetwork.
type Network struct {
	sched    *sim.Scheduler
	opts     Options
	hosts    map[string]*node
	segments map[string][]string         // segment -> member hosts
	routes   map[string]map[string]route // per source (routesFrom)
	queue    []string                    // routesFrom's BFS queue, reused
	connSeq  uint64
	rec      *journal.Recorder
	counters counterHandles
	loss     *lossPlan
	dirLoss  map[[2]string]*lossPlan // per-direction loss schedules
	// downPairs are endpoint pairs (normalized lower-name-first)
	// currently blacked out by a link flap.
	downPairs map[[2]string]bool
	bufFree   [][]byte    // recycled delivery buffers (single-goroutine sim)
	delivFree []*delivery // recycled circuit deliveries, likewise
	// transitHops caches traceTransit's hops per (from, to, direction).
	transitHops map[[3]string][]transitHop
}

// New creates an empty network on the given scheduler.
func New(sched *sim.Scheduler, opts Options) *Network {
	return &Network{
		sched:    sched,
		opts:     opts.withDefaults(),
		hosts:    make(map[string]*node),
		segments: make(map[string][]string),
		routes:   make(map[string]map[string]route),
	}
}

// Scheduler returns the underlying event scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// SetRecorder installs the installation's recorder: the network states
// its own facts to it (message motion and failure injection) and
// carries it for the layers above — daemons, LPMs and tool clients take
// it from their *Network, so instrumenting them needs no constructor
// changes. A nil recorder (the default) records nothing.
func (n *Network) SetRecorder(rec *journal.Recorder) {
	n.rec, n.counters = rec, counterHandles{}
}

// Recorder returns the recorder installed with SetRecorder (possibly
// nil; all recorder methods tolerate that).
func (n *Network) Recorder() *journal.Recorder { return n.rec }

// AddHost registers a host. Hosts start up.
func (n *Network) AddHost(name string) error {
	if _, ok := n.hosts[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateHost, name)
	}
	n.hosts[name] = &node{
		name:      name,
		up:        true,
		listeners: make(map[uint16]func(*Conn)),
		dgram:     make(map[uint16]func(Addr, []byte)),
		nextPort:  10000,
		conns:     make(map[*Conn]bool),
	}
	clear(n.routes)
	n.transitHops = nil
	return nil
}

// AddSegment attaches hosts to a (new or existing) Ethernet segment.
// A host attached to two segments acts as a gateway between them.
func (n *Network) AddSegment(segment string, hostNames ...string) error {
	for _, h := range hostNames {
		nd, ok := n.hosts[h]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownHost, h)
		}
		member := false
		for _, s := range nd.segments {
			if s == segment {
				member = true
			}
		}
		if !member {
			nd.segments = append(nd.segments, segment)
			n.segments[segment] = append(n.segments[segment], h)
		}
	}
	clear(n.routes)
	n.transitHops = nil
	return nil
}

// Hosts returns the sorted host names.
func (n *Network) Hosts() []string {
	return detord.Keys(n.hosts)
}

// route is how a BFS from one source reached a host: the hop count
// (segments traversed) and the host it was reached from (see Path).
type route struct {
	hops   int32
	parent string
}

// routesFrom returns the BFS table from src over the host/segment
// bipartite graph, built on the first query since the last topology
// change (AddHost, AddSegment clear them all). The walk expands hosts
// and segment members in registration order, so paths are the same on
// every run. Partition groups are not considered here; they gate
// delivery dynamically.
func (n *Network) routesFrom(src string) map[string]route {
	if rt, ok := n.routes[src]; ok || n.hosts[src] == nil {
		return rt
	}
	rt := map[string]route{src: {}}
	queue := append(n.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		h := queue[head]
		for _, seg := range n.hosts[h].segments {
			for _, peer := range n.segments[seg] {
				if _, seen := rt[peer]; !seen {
					rt[peer] = route{hops: rt[h].hops + 1, parent: h}
					queue = append(queue, peer)
				}
			}
		}
	}
	n.routes[src], n.queue = rt, queue
	return rt
}

// Hops returns the physical hop count between two hosts and whether a
// path exists at all (ignoring partitions and host state).
func (n *Network) Hops(a, b string) (int, bool) {
	r, ok := n.routesFrom(a)[b]
	return int(r.hops), ok
}

// Reachable reports whether a message from a can currently be delivered
// to b: both hosts up, a physical path exists, no partition separates
// them, and no link flap currently blacks the pair out.
func (n *Network) Reachable(a, b string) bool {
	na, ok := n.hosts[a]
	if !ok {
		return false
	}
	nb, ok := n.hosts[b]
	if !ok {
		return false
	}
	if !na.up || !nb.up || na.group != nb.group {
		return false
	}
	if n.downPairs[pairKey(a, b)] {
		return false
	}
	_, ok = n.Hops(a, b)
	return ok
}

// pairKey normalizes an unordered host pair (lower name first).
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// transit computes the one-way delay for size bytes between two hosts.
// Intra-host delivery still pays a small fixed cost (loopback).
func (n *Network) transit(a, b string, size int) time.Duration {
	hops, ok := n.Hops(a, b)
	if !ok {
		return 0
	}
	if hops == 0 {
		return 100 * time.Microsecond // loopback
	}
	return time.Duration(hops)*calib.HopTransit +
		time.Duration(hops)*calib.TransmissionTime(size)
}

// Path returns the shortest host path from a to b (both endpoints
// included), ignoring partitions and host state: the BFS from a
// (routesFrom) walked back from b, each host's parent being the first
// reached of its neighbours one hop nearer a.
func (n *Network) Path(a, b string) ([]string, bool) {
	hops, ok := n.Hops(a, b)
	if !ok {
		return nil, false
	}
	rt, path := n.routes[a], make([]string, hops+1)
	path[hops] = b
	for i := hops; i > 0; i-- {
		path[i-1] = rt[path[i]].parent
	}
	return path, true
}

// transitHop is one span of a traced transit: the forwarding host and
// the span's name.
type transitHop struct{ host, name string }

// traceTransit records the per-hop transit schedule of a payload sent
// now from a to b as spans under ctx: one span per segment crossing,
// attributed to the forwarding host (so a gateway relaying a two-hop
// message shows up in the trace), or a single loopback span for
// intra-host delivery. The schedule mirrors transit()'s arithmetic.
// Reply-direction sends (tagged by the sender via SendReplyCtx) record
// "net.reply.*" spans instead of "net.hop.*", so the profiler can
// split request transit from reply transit — both directions of a
// circuit are otherwise indistinguishable at this layer.
func (n *Network) traceTransit(ctx trace.Context, a, b string, size int, reply bool) {
	tracer := n.rec.Tracer()
	if tracer == nil || !ctx.Valid() {
		return
	}
	prefix, loopback := "net.hop.", "net.loopback"
	if reply {
		prefix, loopback = "net.reply.", "net.loopback.reply"
	}
	key := [3]string{a, b, prefix}
	hops, seen := n.transitHops[key]
	if !seen {
		path, _ := n.Path(a, b)
		if len(path) == 1 {
			hops = []transitHop{{a, loopback}}
		}
		for i := 0; i+1 < len(path); i++ {
			hops = append(hops, transitHop{path[i], prefix + path[i+1]})
		}
		if n.transitHops == nil {
			n.transitHops = make(map[[3]string][]transitHop)
		}
		n.transitHops[key] = hops
	}
	now := n.sched.Now().Duration()
	per := calib.HopTransit + calib.TransmissionTime(size)
	if a == b {
		per = 100 * time.Microsecond
	}
	for i, h := range hops {
		start := now + time.Duration(i)*per
		tracer.AddSpan(h.host, h.name, ctx, start, start+per)
	}
}

// --- failure injection: message loss ---

// lossPlan drops every Nth inter-host transmission. The schedule is a
// plain counter, not a random draw, so the casualties are the same on
// every same-seed run.
type lossPlan struct {
	every   int
	counter uint64
}

// InjectLoss arranges for every Nth inter-host message to be lost: a
// doomed datagram vanishes silently (UDP), while a doomed circuit
// message severs the circuit — TCP retransmits until the stack gives
// up, so persistent loss surfaces as a broken connection, the visible
// signal the reliability layer's redial path is driven by. Loopback
// traffic is never dropped. every <= 0 disables injection.
func (n *Network) InjectLoss(every int) {
	if every <= 0 {
		n.loss = nil
		return
	}
	n.loss = &lossPlan{every: every}
}

// InjectLossDir arranges for every Nth transmission from -> to (that
// direction only) to be lost, on top of any symmetric plan. Asymmetric
// loss is the signature of a half-broken gateway: replies vanish while
// requests arrive, which is exactly the case an accrual detector must
// distinguish from a dead peer. every <= 0 clears the direction.
func (n *Network) InjectLossDir(from, to string, every int) {
	if n.dirLoss == nil {
		n.dirLoss = make(map[[2]string]*lossPlan)
	}
	if every <= 0 {
		delete(n.dirLoss, [2]string{from, to})
		return
	}
	n.dirLoss[[2]string{from, to}] = &lossPlan{every: every}
}

// loseNow advances the loss schedules and reports whether this
// transmission is an injected casualty. Both the symmetric and the
// directional counter advance on every transmission they observe, so
// the casualty schedule is a pure function of the traffic sequence —
// identical on every same-seed run.
func (n *Network) loseNow(from, to string) bool {
	if from == to {
		return false
	}
	lost := false
	if n.loss != nil {
		n.loss.counter++
		lost = n.loss.counter%uint64(n.loss.every) == 0
	}
	if p, ok := n.dirLoss[[2]string{from, to}]; ok {
		p.counter++
		if p.counter%uint64(p.every) == 0 {
			lost = true
		}
	}
	return lost
}

// --- failure injection: link flapping ---

// FlapLink schedules a deterministic flap of the a<->b endpoint pair:
// after upFor of healthy operation the pair blacks out (both
// directions, like a partition scoped to one pair) for downFor, then
// comes back, repeating for the given number of cycles. Circuits
// between the pair crossing a down window sever with the usual
// break-detection delay; each boundary is journaled (net.flap.down /
// net.flap.up), so the audit sees flaps as reachability epochs.
func (n *Network) FlapLink(a, b string, upFor, downFor time.Duration, cycles int) {
	if n.downPairs == nil {
		n.downPairs = make(map[[2]string]bool)
	}
	key := pairKey(a, b)
	var at time.Duration
	for i := 0; i < cycles; i++ {
		at += upFor
		n.sched.After(at, func() { n.flapDown(key) })
		at += downFor
		n.sched.After(at, func() { n.flapUp(key) })
	}
}

func (n *Network) flapDown(key [2]string) {
	if n.downPairs[key] {
		return
	}
	n.downPairs[key] = true
	n.rec.Record(journal.NetFlapDown, "", trace.Context{}, journal.Link(key[0], key[1]))
	n.breakSeveredConns()
}

func (n *Network) flapUp(key [2]string) {
	if !n.downPairs[key] {
		return
	}
	delete(n.downPairs, key)
	n.rec.Record(journal.NetFlapUp, "", trace.Context{}, journal.Link(key[0], key[1]))
}

// --- host lifecycle and failures ---

// Up reports whether the host is running.
func (n *Network) Up(host string) bool {
	nd, ok := n.hosts[host]
	return ok && nd.up
}

// Status is the network's live-introspection hook for one host: whether
// it is up and how many open circuit endpoints it holds (closed
// endpoints leave the connection set immediately). It allocates
// nothing.
func (n *Network) Status(host string) (up bool, conns int) {
	nd, ok := n.hosts[host]
	if !ok {
		return false, 0
	}
	return nd.up, len(nd.conns)
}

// Crash takes a host down: its listeners and datagram handlers vanish,
// its circuit endpoints die silently, and remote peers notice after the
// break-detection delay.
func (n *Network) Crash(host string) error {
	nd, ok := n.hosts[host]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	if !nd.up {
		return nil
	}
	n.emit(journal.NetHostCrash, event{host: host})
	nd.up = false
	nd.listeners = make(map[uint16]func(*Conn))
	nd.dgram = make(map[uint16]func(Addr, []byte))
	for _, c := range nd.sortedConns() {
		c.dieLocal() // no callbacks: the software on this host is gone
		if peer := c.peer; peer != nil {
			n.breakRemote(peer)
		}
	}
	nd.conns = make(map[*Conn]bool)
	return nil
}

// sortedConns returns the node's circuit endpoints in creation order,
// so that teardown paths iterating the conn set schedule their break
// notifications deterministically.
func (nd *node) sortedConns() []*Conn {
	out := make([]*Conn, 0, len(nd.conns))
	for c := range nd.conns {
		out = append(out, c)
	}
	detord.SortBy(out, func(c *Conn) uint64 { return c.seq })
	return out
}

// Restart brings a crashed host back up with no listeners (system
// daemons must be restarted by the environment).
func (n *Network) Restart(host string) error {
	nd, ok := n.hosts[host]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	if !nd.up {
		n.emit(journal.NetHostRestart, event{host: host})
	}
	nd.up = true
	return nil
}

// Partition splits the network: hosts in groups[i] land in partition
// group i+1; hosts not mentioned stay in group 0. Circuits crossing a
// group boundary break after the detection delay. An unknown host name
// is refused before any group changes.
func (n *Network) Partition(groups ...[]string) error {
	for _, g := range groups {
		for _, h := range g {
			if _, ok := n.hosts[h]; !ok {
				return fmt.Errorf("%w: %s", ErrUnknownHost, h)
			}
		}
	}
	for _, nd := range n.hosts {
		nd.group = 0
	}
	for i, g := range groups {
		for _, h := range g {
			n.hosts[h].group = i + 1
		}
	}
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = strings.Join(g, ",")
	}
	n.rec.Record(journal.NetPartition, "", trace.Context{}, journal.Partition(strings.Join(parts, "|")))
	n.updatePartitionGauge()
	n.breakSeveredConns()
	return nil
}

// Heal removes all partitions.
func (n *Network) Heal() {
	for _, nd := range n.hosts {
		nd.group = 0
	}
	n.emit(journal.NetHeal, event{})
	n.updatePartitionGauge()
}

// updatePartitionGauge tracks how many hosts currently sit outside the
// default partition group.
func (n *Network) updatePartitionGauge() {
	var cut int64
	for _, nd := range n.hosts {
		if nd.group != 0 {
			cut++
		}
	}
	n.rec.Metrics().Gauge("simnet.partitioned_hosts").Set(cut)
}

func (n *Network) breakSeveredConns() {
	for _, h := range n.Hosts() {
		for _, c := range n.hosts[h].sortedConns() {
			if c.peer == nil || !c.open {
				continue
			}
			if !n.Reachable(c.local.Host, c.remote.Host) {
				n.breakRemote(c)
			}
		}
	}
}

// breakRemote schedules a broken-circuit notification on conn after the
// break-detection delay.
func (n *Network) breakRemote(c *Conn) {
	if c == nil || !c.open || c.breaking {
		return
	}
	c.breaking = true
	n.sched.After(n.opts.BreakDetect, func() {
		c.closeWith(ErrPeerLost)
	})
	n.emit(journal.NetCircuitBreak, c.event(0, trace.Context{}).as(c.local.Host, ""))
}

// observeTransit feeds the transit histogram, through a handle resolved
// on the first message sent.
func (n *Network) observeTransit(delay time.Duration) {
	if n.counters.transit == nil {
		n.counters.transit = n.rec.Metrics().Histogram("simnet.transit")
	}
	n.counters.transit.Observe(delay)
}

// copyBuf copies payload into a recycled delivery buffer. The
// simulation runs on one goroutine, so a plain stack is enough; the
// buffer is returned to the pool by putBuf once the receiving handler
// has run. Ownership rule (DESIGN.md "Hot paths & allocation
// discipline"): a delivery payload is valid only for the duration of
// the handler call — a handler that keeps any of it must copy it first,
// as an LPM copies a sibling message's body into the arrival buffer its
// dispatch borrows it from.
func (n *Network) copyBuf(payload []byte) []byte {
	var b []byte
	if ln := len(n.bufFree); ln > 0 {
		b = n.bufFree[ln-1]
		n.bufFree[ln-1] = nil
		n.bufFree = n.bufFree[:ln-1]
	}
	return append(b, payload...)
}

// putBuf returns a delivery buffer to the free list.
func (n *Network) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	n.bufFree = append(n.bufFree, b[:0])
}

// --- datagrams ---

// HandleDatagram installs a datagram handler on host:port.
func (n *Network) HandleDatagram(host string, port uint16, fn func(from Addr, payload []byte)) error {
	nd, ok := n.hosts[host]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	if !nd.up {
		return fmt.Errorf("%w: %s", ErrHostDown, host)
	}
	if _, exists := nd.dgram[port]; exists {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, host, port)
	}
	nd.dgram[port] = fn
	return nil
}

// SendDatagram delivers a datagram with best-effort semantics: silently
// dropped if the destination is unreachable or has no handler, like
// UDP.
func (n *Network) SendDatagram(from, to Addr, payload []byte) {
	ev := event{from: from, to: to, size: len(payload)}
	n.emit(journal.NetSend, ev.as(from.Host, ""))
	if !n.Reachable(from.Host, to.Host) {
		n.emit(journal.NetDrop, ev.as(from.Host, "unreachable"))
		return
	}
	if n.loseNow(from.Host, to.Host) {
		n.emit(journal.NetDrop, ev.as(from.Host, "injected"))
		return
	}
	delay := n.transit(from.Host, to.Host, len(payload))
	n.observeTransit(delay)
	body := n.copyBuf(payload)
	n.sched.After(delay, func() {
		defer n.putBuf(body)
		ev := event{from: from, to: to, size: len(body)}
		nd, ok := n.hosts[to.Host]
		if !ok || !nd.up || !n.Reachable(from.Host, to.Host) {
			n.emit(journal.NetDrop, ev.as(to.Host, "lost"))
			return
		}
		h, ok := nd.dgram[to.Port]
		if !ok {
			n.emit(journal.NetDrop, ev.as(to.Host, "no-handler"))
			return
		}
		n.emit(journal.NetDeliver, ev.as(to.Host, ""))
		h(from, body)
	})
}

// --- reliable stream circuits ---

// Conn is one endpoint of a reliable, message-framed virtual circuit.
// Callbacks (message and close handlers) run on the scheduler.
type Conn struct {
	net      *Network
	seq      uint64 // creation order; keeps map-wide teardown deterministic
	local    Addr
	remote   Addr
	peer     *Conn
	open     bool
	breaking bool
	lastRecv sim.Time // enforces FIFO even when sizes vary
	onMsg    func([]byte)
	onClose  func(error)
}

// LocalAddr returns the endpoint's own address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Open reports whether the circuit is usable.
func (c *Conn) Open() bool { return c.open }

// Breaking reports whether the endpoint has been severed and is waiting
// out the break-detection delay before its close handler fires.
func (c *Conn) Breaking() bool { return c.breaking }

// SetHandler installs the message callback.
func (c *Conn) SetHandler(fn func(payload []byte)) { c.onMsg = fn }

// SetCloseHandler installs the close callback; it runs once when the
// circuit closes or breaks.
func (c *Conn) SetCloseHandler(fn func(err error)) { c.onClose = fn }

// Send transmits one framed message to the peer. Delivery is reliable
// and in order while the circuit lives; if the circuit breaks before
// delivery the message is lost and both ends learn of the break.
func (c *Conn) Send(payload []byte) error {
	return c.SendCtx(payload, trace.Context{})
}

// SendCtx is Send under a trace context: when ctx is valid, the
// message's per-hop transit schedule is recorded as spans attributed
// to the hosts it crosses. An invalid ctx makes it identical to Send.
func (c *Conn) SendCtx(payload []byte, ctx trace.Context) error {
	return c.sendCtx(payload, ctx, false)
}

// SendReplyCtx is SendCtx for the response direction of a
// request/reply exchange: transit spans are named "net.reply.*" so
// post-hoc attribution can separate reply transit from request
// transit. Delivery semantics are identical to SendCtx.
func (c *Conn) SendReplyCtx(payload []byte, ctx trace.Context) error {
	return c.sendCtx(payload, ctx, true)
}

// DeliverNow hands payload to the peer's message handler at once, as a
// delivery would but with no transit and no delivery buffer: payload
// stays the caller's, during the call and after it. It lets a test
// check that a handler keeps nothing of a frame past its call.
func (c *Conn) DeliverNow(payload []byte) {
	if h := c.peer.onMsg; h != nil {
		h(payload)
	}
}

func (c *Conn) sendCtx(payload []byte, ctx trace.Context, reply bool) error {
	if !c.open {
		return ErrConnClosed
	}
	n := c.net
	ev := c.event(len(payload), ctx)
	n.emit(journal.NetSend, ev.as(c.local.Host, ""))
	if !n.Reachable(c.local.Host, c.remote.Host) {
		c.sever(ev.as(c.local.Host, "severed"))
		return nil
	}
	if n.loseNow(c.local.Host, c.remote.Host) {
		c.sever(ev.as(c.local.Host, "injected"))
		return nil
	}
	n.traceTransit(ctx, c.local.Host, c.remote.Host, len(payload), reply)
	delay := n.transit(c.local.Host, c.remote.Host, len(payload))
	n.observeTransit(delay)
	at := n.sched.Now().Add(delay)
	peer := c.peer
	if at.Before(peer.lastRecv) {
		at = peer.lastRecv // FIFO per circuit
	}
	peer.lastRecv = at
	var d *delivery
	if ln := len(n.delivFree); ln > 0 {
		d, n.delivFree = n.delivFree[ln-1], n.delivFree[:ln-1]
	} else {
		d = &delivery{}
		d.run = d.deliver
	}
	d.c, d.body, d.ctx = c, n.copyBuf(payload), ctx
	n.sched.At(at, d.run)
	return nil
}

// delivery is one circuit message in flight; run is deliver, bound once.
type delivery struct {
	c    *Conn
	body []byte
	ctx  trace.Context
	run  func()
}

// deliver hands the message to the peer's handler: the record back on
// the free list first (a handler may send), the buffer once it returns.
//
//ppmlint:hotpath pin=TestSiblingExchangeAllocs
func (d *delivery) deliver() {
	c, body, ctx, n, peer := d.c, d.body, d.ctx, d.c.net, d.c.peer
	*d = delivery{run: d.run}
	n.delivFree = append(n.delivFree, d)
	defer n.putBuf(body)
	ev := c.event(len(body), ctx)
	if !peer.open {
		n.emit(journal.NetDrop, ev.as(c.remote.Host, "closed"))
		return
	}
	if !n.Reachable(c.local.Host, c.remote.Host) {
		c.sever(ev.as(c.remote.Host, "severed"))
		return
	}
	n.emit(journal.NetDeliver, ev.as(c.remote.Host, ""))
	if peer.onMsg != nil {
		peer.onMsg(body)
	}
}

// event describes size bytes crossing the circuit from this endpoint
// (size 0: the circuit itself).
func (c *Conn) event(size int, ctx trace.Context) event {
	return event{from: c.local, to: c.remote, size: size, circuit: true, ctx: ctx}
}

// sever records a message that could not cross and breaks both
// endpoints: TCP would retransmit and eventually time out, modelled as
// an eventual break of the whole circuit.
func (c *Conn) sever(drop event) {
	c.net.emit(journal.NetDrop, drop)
	c.net.breakRemote(c)
	c.net.breakRemote(c.peer)
}

// Close shuts the circuit down cleanly; the peer's close handler runs
// after one transit delay with a nil error. The close notification is
// ordered after any data already in flight (TCP delivers data before
// the FIN).
func (c *Conn) Close() {
	if !c.open {
		return
	}
	c.net.emit(journal.NetCircuitClose, c.event(0, trace.Context{}).as(c.local.Host, ""))
	c.closeWith(nil)
	peer := c.peer
	if peer != nil && peer.open {
		at := c.net.sched.Now().Add(c.net.transit(c.local.Host, c.remote.Host, 0))
		if at.Before(peer.lastRecv) {
			at = peer.lastRecv
		}
		peer.lastRecv = at
		c.net.sched.At(at, func() { peer.closeWith(nil) })
	}
}

// dieLocal tears the endpoint down without callbacks (host crash).
func (c *Conn) dieLocal() {
	c.open = false
	c.onMsg = nil
	c.onClose = nil
}

func (c *Conn) closeWith(err error) {
	if !c.open {
		return
	}
	c.open = false
	if nd, ok := c.net.hosts[c.local.Host]; ok {
		delete(nd.conns, c)
	}
	if c.onClose != nil {
		cb := c.onClose
		c.onClose = nil
		cb(err)
	}
}

// Listen installs an accept callback on host:port. The callback
// receives the server-side Conn of each new circuit.
func (n *Network) Listen(host string, port uint16, accept func(*Conn)) error {
	nd, ok := n.hosts[host]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, host)
	}
	if !nd.up {
		return fmt.Errorf("%w: %s", ErrHostDown, host)
	}
	if _, exists := nd.listeners[port]; exists {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, host, port)
	}
	nd.listeners[port] = accept
	return nil
}

// CloseListen removes a listener; established circuits are unaffected.
func (n *Network) CloseListen(host string, port uint16) {
	if nd, ok := n.hosts[host]; ok {
		delete(nd.listeners, port)
	}
}

// Dial opens a circuit from a host to a listening address. The callback
// runs after the simulated handshake with either an open Conn or an
// error (refused, unreachable, host down).
func (n *Network) Dial(fromHost string, to Addr, cb func(*Conn, error)) {
	n.DialTo(fromHost, to, trace.Context{}, dialFunc(cb))
}

// A Dialer is told how a dial ended: with an open Conn or an error.
type Dialer interface{ Dialed(*Conn, error) }

type dialFunc func(*Conn, error)

func (f dialFunc) Dialed(c *Conn, err error) { f(c, err) }

// unreachable is ErrUnreachable as data: its text is built when read.
type unreachable struct{ from, to string }

func (e *unreachable) Error() string { return ErrUnreachable.Error() + ": " + e.from + " -> " + e.to }
func (e *unreachable) Unwrap() error { return ErrUnreachable }

// DialTo is Dial under a trace context, reporting to a Dialer: when
// ctx is valid the SYN and SYN-ACK legs of the handshake are recorded
// as per-hop spans, and a caller that keeps one record per dial passes
// the record and allocates no callback.
func (n *Network) DialTo(fromHost string, to Addr, ctx trace.Context, cb Dialer) {
	n.rec.Metrics().Handle(&n.counters.dialAttempts, "simnet.dial.attempts").Inc()
	src, ok := n.hosts[fromHost]
	if !ok {
		n.sched.Defer(func() { cb.Dialed(nil, fmt.Errorf("%w: %s", ErrUnknownHost, fromHost)) })
		return
	}
	if !src.up {
		n.sched.Defer(func() { cb.Dialed(nil, fmt.Errorf("%w: %s", ErrHostDown, fromHost)) })
		return
	}
	if !n.Reachable(fromHost, to.Host) {
		// A connect() to an unreachable host times out; model with the
		// break-detect delay.
		n.sched.After(n.opts.BreakDetect, func() { cb.Dialed(nil, &unreachable{fromHost, to.Host}) })
		return
	}
	src.nextPort++
	local := Addr{Host: fromHost, Port: src.nextPort}
	n.traceTransit(ctx, fromHost, to.Host, 64, false) // SYN
	d := n.transit(fromHost, to.Host, 64)
	n.sched.After(d, func() {
		dst, ok := n.hosts[to.Host]
		if !ok || !dst.up || !n.Reachable(fromHost, to.Host) {
			n.sched.After(n.opts.BreakDetect, func() { cb.Dialed(nil, &unreachable{fromHost, to.Host}) })
			return
		}
		acceptFn, ok := dst.listeners[to.Port]
		if !ok {
			n.sched.After(d, func() { cb.Dialed(nil, fmt.Errorf("%w: %s", ErrNoListener, to)) })
			return
		}
		n.connSeq += 2
		client := &Conn{net: n, seq: n.connSeq - 1, local: local, remote: to, open: true}
		server := &Conn{net: n, seq: n.connSeq, local: to, remote: local, open: true}
		client.peer = server
		server.peer = client
		src.conns[client] = true
		dst.conns[server] = true
		n.emit(journal.NetCircuitOpen, client.event(0, ctx).as(fromHost, ""))
		acceptFn(server)
		n.traceTransit(ctx, to.Host, fromHost, 64, true) // SYN-ACK
		n.sched.After(d, func() {                        // SYN-ACK back to the dialer
			if !client.open {
				cb.Dialed(nil, ErrConnClosed)
				return
			}
			cb.Dialed(client, nil)
		})
	})
}
