package lpm

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"time"

	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The graph-covering broadcast of the paper's Section 4. Because the
// on-demand communication topology produces low-connectivity graphs, a
// broadcast request floods over the sibling circuits: each LPM forwards
// the request to every sibling except the one it arrived from, answers
// duplicates without retransmitting them (dedup by the signed stamp,
// retained for the configurable DedupWindow), and echoes an aggregate
// back along the recorded route once all of its children have answered.

// floodHop is one flood in progress at one node, from its request (at
// the origin, its call) to its echo (the origin's delivery), as one
// record of floodFree (DESIGN.md §10 "A message's hops are recycled
// records"). Its callbacks are method values bound when the record is
// first used; its buffers — the legs, the forwarded route and body, the
// local fragment, the result's lists — serve the next flood. Lists stay in
// wire form: a child's echo is copied in byte for byte while its body
// is borrowed.
type floodHop struct {
	l       *LPM
	ctx     trace.Context
	reply   replyTo       // an interior hop's: where the echo goes
	deliver func(flooded) // the origin's: takes the aggregate
	seq     uint64        // the broadcast's, echoed back
	stamp   journal.Detail
	// route is the request's route plus this host: forwarded, echoed,
	// and this host's entry in the result's Routes.
	route    wire.List[string]
	body     []byte      // the forwarded Broadcast, the same bytes to every child
	legs     []*floodLeg // the first n are this flood's children, in host order
	awaiting int
	// This host's fragment, held until its CPU is paid.
	count   int32
	procs   wire.List[proc.Info]
	report  []byte // a status flood's: this host's encoded report
	result  wire.FloodResult
	applied bool
	apply   func() // applyLocal
}

// floodLeg is one child's leg of a flood: its callback, bound once,
// settles the leg on the hop it belongs to.
type floodLeg struct {
	h       *floodHop
	host    string
	settled func(wire.Envelope, error) // settle
}

func (l *LPM) newFloodHop(ctx trace.Context) *floodHop {
	h := floodFree.Get().(*floodHop)
	if h.apply == nil {
		h.apply = h.applyLocal
	}
	h.l, h.ctx = l, ctx
	return h
}

// flooded is a finished broadcast as its origin reads it: the
// aggregate's lists, decoded once, and its status reports still in wire
// form, the origin record's own list: valid only while deliver runs.
type flooded struct {
	count          int32
	procs          []proc.Info
	partial, hosts []string
	reports        wire.List[string]
}

// stampID is a broadcast's dedup identity: its stamp less the
// signature, the origin interned.
type stampID struct {
	origin string
	at     time.Duration
	seq    uint64
}

// stampDetail is a flood record's detail: whose flood, and which.
func (l *LPM) stampDetail(s wire.Stamp) journal.Detail {
	return journal.FloodStamp(l.user.Name, s.Origin, s.At, s.Seq)
}

// markSeen records a stamp in the dedup window and reports whether it
// was already present (a duplicate).
func (l *LPM) markSeen(s wire.Stamp) bool {
	now := l.sched.Now().Duration()
	l.seen.Expire(now)
	id := stampID{origin: s.Origin, at: s.At, seq: s.Seq}
	if _, ok := l.seen.Get(id); ok {
		return true
	}
	l.seen.Put(id, struct{}{}, now)
	return false
}

// localWork performs the inner operation here into the record's
// fragment, built in its own buffers, and returns the CPU demand it
// costs. inner's body is the hop's.
func (h *floodHop) localWork(inner wire.Envelope) time.Duration {
	l := h.l
	var here [8]proc.Info // the processes here: on the stack, unless there are more
	switch inner.Type {
	case wire.MsgSnapshotReq:
		infos := l.localInfos(here[:0])
		for i := range infos {
			h.procs.Add(infos[i])
		}
		return gatherCost(len(infos))
	case wire.MsgControl:
		var req wire.Control
		if wire.DecodeHop(inner.Body, &req, l.user.Names) != nil || req.User != l.user.Name {
			return 0
		}
		// A zero-target control applies to every live user process on
		// this host (broadcasting, say, a software interrupt to stop
		// execution).
		for _, info := range l.liveProcs(here[:0]) {
			if resp := l.applyControl(info.ID.PID, req.Op, req.Signal); resp.OK {
				h.count++
			}
		}
		return time.Duration(h.count) * 2 * time.Millisecond
	case wire.MsgStatusReq:
		var req wire.StatusReq
		if wire.DecodeHop(inner.Body, &req, l.user.Names) != nil || req.User != l.user.Name {
			return 0
		}
		l.BuildStatus(&l.statusScratch)
		h.report = wire.EncodeTo(h.report, &l.statusScratch)
		return gatherCost(l.statusScratch.ProcsTotal)
	default:
		return 0
	}
}

// startFlood originates a broadcast from this LPM and calls cb with the
// aggregated result.
func (l *LPM) startFlood(ctx trace.Context, inner wire.Envelope, cb func(flooded)) {
	l.floodSeq++
	// The signature is the signer's buffer until run has encoded it.
	stamp := l.user.Stamps.Mint(l.Host(), l.sched.Now().Duration(), l.floodSeq)
	l.markSeen(stamp)
	l.obs.Record(journal.LPMFloodOrigin, l.Host(), ctx, journal.FloodOrigin(l.stampDetail(stamp), inner.Type.String()))
	h := l.newFloodHop(ctx)
	h.deliver = cb
	h.route.Add(l.Host())
	h.run(wire.Broadcast{Stamp: stamp, Seq: l.floodSeq, Route: h.route, Inner: inner.Encode()}, inner, "")
}

// handleFlood serves a broadcast arriving over a sibling circuit,
// answering through reply. The at-most-once filter upstream makes the
// per-hop echo retryable: a retransmitted leg replays this node's full
// cached echo instead of being answered Dup (which would lose the
// subtree's data). The request is read in place, over the body its
// dispatch borrows: nothing in it is copied but the route it is
// forwarded with.
//
//ppmlint:hotpath pin=TestFloodHopAllocs
func (l *LPM) handleFlood(env wire.Envelope, reply replyTo) {
	// Verify the signed stamp: the origin's name appears in it and the
	// signature binds it to the user's key.
	var bc wire.Broadcast
	if wire.DecodeHop(env.Body, &bc, l.user.Names) != nil || !l.user.Stamps.Verify(&bc.Stamp) {
		l.echo(reply, wire.BroadcastResp{}, wire.FloodResult{OK: false})
		return
	}
	if l.markSeen(bc.Stamp) && !(skipStatusDedup && innerType(bc.Inner) == wire.MsgStatusReq) {
		// An old broadcast request: answer but do not retransmit.
		l.obs.Record(journal.LPMFloodDup, l.Host(), reply.ctx, l.stampDetail(bc.Stamp))
		l.echo(reply, wire.BroadcastResp{Seq: bc.Seq, From: l.Host(), Route: bc.Route}, wire.FloodResult{OK: true, Dup: true})
		return
	}
	l.obs.Metrics().Handle(&l.floodForwarded, "lpm.flood.forwarded").Inc()
	inner, err := wire.DecodeEnvelopeLogged(bc.Inner, l.obs, l.Host())
	if err != nil {
		l.echo(reply, wire.BroadcastResp{}, wire.FloodResult{OK: false})
		return
	}
	h := l.newFloodHop(reply.ctx)
	h.reply, h.seq = reply, bc.Seq
	h.route.Splice(bc.Route)
	h.route.Add(l.Host())
	h.run(bc, inner, reply.sb.peer.host)
}

// skipStatusDedup, set only by tests, makes a hop serve a status flood
// it has already seen as if it were new: the product mutation the sweep
// audit has to catch, as a host resolved more than once.
var skipStatusDedup bool

// innerType is the type of a broadcast's inner request, 0 if unreadable.
func innerType(inner []byte) wire.MsgType {
	env, err := wire.DecodeEnvelopeBorrow(inner)
	if err != nil {
		return 0
	}
	return env.Type
}

// echo answers a flood request: the reply head m, res inside it.
func (l *LPM) echo(reply replyTo, m wire.BroadcastResp, res wire.FloodResult) {
	reply.send(wire.MsgBroadcastResp, wire.EncodeEcho(m, &res, l.replies))
}

// run performs the local work and forwards bc, the request, to all
// siblings except the parent and those on its route, finishing the hop
// when every child answered (or failed).
func (h *floodHop) run(bc wire.Broadcast, inner wire.Envelope, parentHost string) {
	l, legs, n := h.l, h.legs, 0
	// Fan out in host order, as the order the requests hit the circuits
	// decides queueing delays downstream, and never back to a host
	// already on the route.
	for _, p := range l.ordered {
		if p.host != parentHost && p.open() != nil && !onRoute(bc.Route, p.host) {
			if n == len(legs) {
				g := &floodLeg{h: h}
				g.settled = g.settle
				legs = append(legs, g)
			}
			legs[n].host = p.host
			n++
		}
	}
	h.legs, legs = legs, legs[:n]
	h.awaiting = n
	if n > 0 {
		bc.Route = h.route
		h.body = wire.EncodeTo(h.body, &bc)
	}
	var cost time.Duration
	l.withTraceCtx(h.ctx, func() { cost = h.localWork(inner) })
	h.stamp = l.stampDetail(bc.Stamp)
	// Each per-hop echo is its own at-most-once operation through the
	// retry engine: a lost request or echo is retransmitted under a
	// stable op id, and the child replays its full cached echo rather
	// than answering Dup for an already-seen stamp. A status flood's
	// legs carry no op id, so no hop holds its echo: a report is
	// read-only, and a subtree a retransmission finds answered Dup is
	// left to the sweep's direct asks.
	for _, g := range legs {
		op := uint64(0)
		if inner.Type != wire.MsgStatusReq {
			l.opSeq++
			op = l.opSeq
		}
		l.callWithRetry(h.ctx, g.host, wire.MsgBroadcast, h.body, op, g.settled)
	}
	l.execSpan(h.ctx, "exec.flood_work", cost, h.apply)
}

// settle adds the child's echo to the aggregate, or the child to its
// Partial list when the leg failed.
func (g *floodLeg) settle(env wire.Envelope, err error) {
	h := g.h
	if err != nil || h.result.Splice(env.Body, h.l.user.Names) != nil {
		h.result.Partial.Add(g.host)
	}
	h.awaiting--
	h.maybeFinish()
}

// applyLocal adds this host's fragment to the aggregate once its CPU is
// paid. That CPU slot is the boot's: a crash first ends it, the hop
// never finishes, and its record is dropped, not returned.
func (h *floodHop) applyLocal() {
	l := h.l
	l.obs.Record(journal.LPMFloodApply, l.Host(), h.ctx, h.stamp)
	h.result.OK = true
	h.result.Count += h.count
	h.result.Procs.Splice(h.procs)
	wire.AddBytes(&h.result.Reports, h.report)
	h.result.Hosts.Add(l.Host())
	var route [64]byte
	h.result.Routes.Add(string(appendRoute(route[:0], h.route)))
	h.applied = true
	h.maybeFinish()
}

// onRoute reports whether host is on route.
func onRoute(route wire.List[string], host string) bool {
	for r := wire.StringsOf(route); ; {
		h, ok := r.Next()
		if !ok || string(h) == host {
			return ok
		}
	}
}

// appendRoute appends route's hosts joined by '/', the form of a flood
// result's Routes entries.
func appendRoute(dst []byte, route wire.List[string]) []byte {
	for r, sep := wire.StringsOf(route), false; ; sep = true {
		h, ok := r.Next()
		if !ok {
			return dst
		}
		if sep {
			dst = append(dst, '/')
		}
		dst = append(dst, h...)
	}
}

// maybeFinish ends the hop once its local work has run and its last leg
// has settled: an interior hop echoes the aggregate, the origin delivers
// it. Then nothing refers to the record, and it goes back to the pool
// (DESIGN.md §10).
func (h *floodHop) maybeFinish() {
	if !h.applied || h.awaiting > 0 {
		return
	}
	l := h.l
	if h.deliver == nil {
		l.echo(h.reply, wire.BroadcastResp{Seq: h.seq, From: l.Host(), Route: h.route}, h.result)
	} else {
		res := &h.result
		names := l.user.Names // the strings interned, not copied (DESIGN.md §10)
		f := flooded{count: res.Count, procs: res.Procs.Values(names), partial: res.Partial.Values(names), hosts: res.Hosts.Values(names), reports: res.Reports}
		l.learnRoutes(res.Routes)
		l.obs.Record(journal.LPMFloodDone, l.Host(), h.ctx, journal.FloodDone(h.stamp, l.sortedList(f.hosts), l.sortedList(f.partial)))
		h.deliver(f)
	}
	h.result.Reset()
	h.route.Reset()
	h.procs.Reset()
	*h = floodHop{apply: h.apply, route: h.route, body: h.body, legs: h.legs, procs: h.procs, report: h.report[:0], result: h.result}
	floodFree.Put(h)
}

// --- flood-based public operations ---

// Snapshot gathers the state of the user's distributed computation:
// all known processes with their genealogy across every host reachable
// over the PPM's circuit graph. Unreachable hosts are reported in
// Partial and the resulting genealogy may be a forest.
func (l *LPM) Snapshot(cb func(proc.Snapshot, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(proc.Snapshot{}, ErrExited) })
		return
	}
	inner := wire.Envelope{Type: wire.MsgSnapshotReq,
		Body: wire.Encode(&wire.SnapshotReq{User: l.user.Name, Forward: true})}
	l.toolCall("snapshot", func(ctx trace.Context, done func(func())) {
		l.startFlood(ctx, inner, func(f flooded) {
			done(func() {
				snap := proc.Adopt(l.sched.Now().Duration(), f.procs)
				snap.Partial = l.uncovered(f)
				l.obs.Record(journal.SnapshotTaken, l.Host(), ctx, journal.Snapshot(l.user.Name, l.procList(snap.Procs), l.sortedList(snap.Partial)))
				cb(snap, nil)
			})
		})
	})
}

// procList renders a merged snapshot's process table for the journal
// in the audit's "gpid|parent|state" form, ";"-joined (GPID strings
// contain commas, so the entry separators avoid them) — and only when a
// journal is wired to keep it, as sortedList.
func (l *LPM) procList(ps []proc.Info) string {
	if l.obs.Journal() == nil {
		return ""
	}
	var sb strings.Builder
	for i, p := range ps {
		if i > 0 {
			sb.WriteByte(';')
		}
		parent := "-"
		if !p.Parent.IsZero() {
			parent = p.Parent.String()
		}
		sb.WriteString(p.ID.String() + "|" + parent + "|" + p.State.String())
	}
	return sb.String()
}

// sortedList renders host names sorted and comma-joined for a journal
// record: "" when no journal is wired to keep them. It sorts a copy in
// the LPM's scratch slice, since callers walk hs in its own order.
func (l *LPM) sortedList(hs []string) string {
	if l.obs.Journal() == nil {
		return ""
	}
	l.sorted = append(l.sorted[:0], hs...)
	detord.Sort(l.sorted)
	return strings.Join(l.sorted, ",")
}

// ControlAll applies a control operation (typically a software
// interrupt) to every live process of the user on every reachable host;
// it returns the number of processes affected.
func (l *LPM) ControlAll(op wire.ControlOp, sig proc.Signal, cb func(int, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(0, ErrExited) })
		return
	}
	req := wire.Control{User: l.user.Name, Op: op, Signal: sig}
	inner := wire.Envelope{Type: wire.MsgControl, Body: wire.Encode(&req)}
	l.toolCall("control_all", func(ctx trace.Context, done func(func())) {
		l.startFlood(ctx, inner, func(f flooded) {
			done(func() {
				if len(f.partial) > 0 {
					cb(int(f.count), fmt.Errorf("%w: no answer from %v", ErrNoSibling, f.partial))
					return
				}
				cb(int(f.count), nil)
			})
		})
	})
}

// Ping probes the sibling LPM on host and reports its CCS view. Pings
// ride the retry engine like every other point-to-point operation
// (read-only, so no at-most-once entry is held for them): a ping that
// lands in a transient outage recovers by redial instead of surfacing
// a spurious failure.
func (l *LPM) Ping(host string, cb func(wire.Pong, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(wire.Pong{}, ErrExited) })
		return
	}
	body := wire.Encode(&wire.Ping{FromHost: l.Host(), User: l.user.Name})
	l.toolCall("ping", func(ctx trace.Context, done func(func())) {
		l.opSeq++
		l.callWithRetry(ctx, host, wire.MsgPing, body, l.opSeq, func(env wire.Envelope, err error) {
			var pong wire.Pong
			err = firstErr(err, wire.Decode(env.Body, &pong))
			p := pong // the body is borrowed: decoded now, and copied out of the decoded-into pong
			done(func() { cb(p, err) })
		})
	})
}

// learnRoutes records relay paths to distant hosts from broadcast
// reply routes ("all data returned to the originator of a broadcast
// request includes the message's source-destination route"), read in
// place: a route is copied out only when it is new or shorter.
func (l *LPM) learnRoutes(routes wire.List[string]) {
	for r := wire.StringsOf(routes); ; {
		route, ok := r.Next()
		if !ok {
			return
		}
		i := bytes.IndexByte(route, '/')
		if i < 0 || string(route[:i]) != l.Host() {
			continue // route to self, or not rooted here
		}
		rest := route[i+1:]
		dest := rest[bytes.LastIndexByte(rest, '/')+1:]
		// Prefer the shortest known route; no attention is paid to
		// finding minimum-hop physical routes, as in the paper. The
		// lookup copies nothing; a new record takes the split's name.
		p := l.peers[string(dest)]
		if p == nil || p.route == nil || bytes.Count(rest, []byte{'/'})+1 < len(p.route) {
			path := strings.Split(string(rest), "/")
			if p == nil {
				p = l.peer(path[len(path)-1])
			}
			p.route = path
		}
		p.known = true
	}
}

// uncovered merges the flood's explicit failures with known hosts that
// contributed nothing — hosts whose LPM (or whole machine) is gone, the
// situation in which the genealogy snapshot becomes a forest. It is nil
// when the flood covered them all.
func (l *LPM) uncovered(f flooded) []string {
	var missing []string
	for _, h := range f.partial {
		if !slices.Contains(f.hosts, h) {
			missing = append(missing, h)
		}
	}
	for _, p := range l.ordered {
		if p.known && !slices.Contains(f.hosts, p.host) {
			missing = append(missing, p.host)
		}
	}
	detord.Sort(missing)
	return slices.Compact(missing)
}
