package lpm

import (
	"bytes"
	"fmt"
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

// floodState tracks one in-progress flood at one node. The aggregate's
// lists stay in wire form: a child's echo is spliced in as it arrived.
type floodState struct {
	awaiting  int
	result    wire.FloodResult
	finished  bool
	localDone bool
	finish    func(wire.FloodResult)
}

// flooded is a finished broadcast as its origin reads it: the
// aggregate's lists, decoded once.
type flooded struct {
	count          int32
	procs          []proc.Info
	partial, hosts []string
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

// localFloodWork performs the inner operation locally and returns the
// fragment plus the CPU demand it costs. inner's body is the hop's.
func (l *LPM) localFloodWork(inner wire.Envelope) (wire.FloodResult, time.Duration) {
	var here [8]proc.Info // the processes here: on the stack, unless there are more
	switch inner.Type {
	case wire.MsgSnapshotReq:
		infos := l.localInfos(here[:0])
		return wire.FloodResult{OK: true, Procs: wire.ListOf(infos...)}, gatherCost(len(infos))
	case wire.MsgControl:
		var req wire.Control
		if wire.DecodeHop(inner.Body, &req, l.user.Names) != nil || req.User != l.user.Name {
			return wire.FloodResult{OK: false}, 0
		}
		// A zero-target control applies to every live user process on
		// this host (broadcasting, say, a software interrupt to stop
		// execution).
		count := int32(0)
		for _, info := range l.kern.AppendProcessesOf(here[:0], l.user.Name) {
			if l.myPids[info.ID.PID] {
				continue
			}
			if info.State != proc.Running && info.State != proc.Stopped {
				continue
			}
			if resp := l.applyControl(info.ID.PID, req.Op, req.Signal); resp.OK {
				count++
			}
		}
		return wire.FloodResult{OK: true, Count: count},
			time.Duration(count) * 2 * time.Millisecond
	default:
		return wire.FloodResult{OK: false}, 0
	}
}

// startFlood originates a broadcast from this LPM and calls cb with the
// aggregated result.
func (l *LPM) startFlood(ctx trace.Context, inner wire.Envelope, cb func(flooded)) {
	l.floodSeq++
	// The signature is the signer's buffer until runFlood has encoded it.
	stamp := l.user.Stamps.Mint(l.Host(), l.sched.Now().Duration(), l.floodSeq)
	l.markSeen(stamp)
	l.obs.Notef(journal.LPMFloodOrigin, l.Host(), ctx, "%v inner=%v", l.stampDetail(stamp), inner.Type)
	bc := wire.Broadcast{
		Stamp: stamp,
		Seq:   l.floodSeq,
		Route: wire.ListOf(l.Host()),
		Inner: inner.Encode(),
	}
	st := &floodState{finish: func(res wire.FloodResult) {
		f := flooded{count: res.Count, procs: res.Procs.Values(), partial: res.Partial.Values(), hosts: res.Hosts.Values()}
		l.learnRoutes(res.Routes)
		l.obs.Notef(journal.LPMFloodDone, l.Host(), ctx, "%v hosts=%s partial=%s",
			l.stampDetail(stamp), sortedList(f.hosts), sortedList(f.partial))
		cb(f)
	}}
	l.runFlood(ctx, st, bc, inner, "")
}

// handleFlood serves a broadcast arriving over a sibling circuit,
// answering through reply. The at-most-once filter upstream makes the
// per-hop echo retryable: a retransmitted leg replays this node's full
// cached echo instead of being answered Dup (which would lose the
// subtree's data). The request is read in place, over the hop's own
// body: nothing in it is copied but the route it is forwarded with.
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
	if l.markSeen(bc.Stamp) {
		// An old broadcast request: answer but do not retransmit.
		l.obs.Record(journal.LPMFloodDup, l.Host(), reply.ctx, l.stampDetail(bc.Stamp))
		l.echo(reply, wire.BroadcastResp{Seq: bc.Seq, From: l.Host(), Route: bc.Route}, wire.FloodResult{OK: true, Dup: true})
		return
	}
	l.obs.Metrics().Handle(&l.floodForwarded, "lpm.flood.forwarded").Inc()
	inner, err := wire.DecodeEnvelopeBorrowLogged(bc.Inner, l.obs, l.Host())
	if err != nil {
		l.echo(reply, wire.BroadcastResp{}, wire.FloodResult{OK: false})
		return
	}
	// The route forwarded and echoed: the request's, plus this host.
	route, seq := bc.Route.With(l.Host()), bc.Seq // copies: capturing bc would move it to the heap
	fwd := bc
	fwd.Route = route
	st := &floodState{finish: func(res wire.FloodResult) {
		l.echo(reply, wire.BroadcastResp{Seq: seq, From: l.Host(), Route: route}, res)
	}}
	l.runFlood(reply.ctx, st, fwd, inner, reply.sb.host)
}

// echo answers a flood request: the reply head m, res inside it.
func (l *LPM) echo(reply replyTo, m wire.BroadcastResp, res wire.FloodResult) {
	reply.send(wire.MsgBroadcastResp, wire.EncodeEcho(m, &res))
}

// runFlood performs the local work and forwards to all siblings except
// the parent, completing st when every child answered (or failed).
func (l *LPM) runFlood(ctx trace.Context, st *floodState, bc wire.Broadcast, inner wire.Envelope, parentHost string) {
	children := make([]*sibling, 0, len(l.siblings))
	for h, sb := range l.siblings {
		// Do not send the request back to hosts already on the route.
		if h != parentHost && sb.conn.Open() && !onRoute(bc.Route, h) {
			children = append(children, sb)
		}
	}
	// Fan out in host order: l.siblings is a map, and the order the
	// requests hit the circuits decides queueing delays downstream.
	detord.SortBy(children, func(sb *sibling) string { return sb.host })
	st.awaiting = len(children)
	var body []byte // encoded once, the same bytes go to every child
	if out := bc; len(children) > 0 {
		body = wire.Encode(&out) // of a copy: taking bc's address would move it, captured below, to the heap
	}
	var local wire.FloodResult
	var cost time.Duration
	l.withTraceCtx(ctx, func() { local, cost = l.localFloodWork(inner) })
	count, procs := local.Count, local.Procs // copies: local, assigned in a closure, would move to the heap
	// Each per-hop echo is its own at-most-once operation through the
	// retry engine: a lost request or echo is retransmitted under a
	// stable op id, and the child replays its full cached echo rather
	// than answering Dup for an already-seen stamp. The echo's body is
	// the hop's own, so the aggregate takes its lists as they are.
	for _, child := range children {
		from := child.host
		l.opSeq++
		l.callWithRetry(ctx, from, wire.MsgBroadcast, body, l.opSeq, func(env wire.Envelope, err error) {
			if err != nil || st.result.Splice(env.Body, l.user.Names) != nil {
				st.result.Partial.Add(from)
			}
			st.awaiting--
			l.maybeFinishFlood(st)
		})
	}
	l.execSpan(ctx, "exec.flood_work", cost, func() {
		l.obs.Record(journal.LPMFloodApply, l.Host(), ctx, l.stampDetail(bc.Stamp))
		st.result.OK = true
		st.result.Count += count
		st.result.Procs.Splice(procs)
		st.result.Hosts.Add(l.Host())
		var route [64]byte
		st.result.Routes.Add(string(appendRoute(route[:0], bc.Route)))
		st.localDone = true
		l.maybeFinishFlood(st)
	})
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

func (l *LPM) maybeFinishFlood(st *floodState) {
	if st.finished || !st.localDone || st.awaiting > 0 {
		return
	}
	st.finished = true
	st.finish(st.result)
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
				snap := proc.Merge(l.sched.Now().Duration(), f.procs)
				snap.Partial = l.uncovered(f)
				l.obs.Notef(journal.SnapshotTaken, l.Host(), ctx, "user=%s procs=%s partial=%s",
					l.user.Name, procList(snap.Procs), strings.Join(snap.Partial, ","))
				cb(snap, nil)
			})
		})
	})
}

// procList renders a merged snapshot's process table for the journal
// in the audit's "gpid|parent|state" form, ";"-joined (GPID strings
// contain commas, so the entry separators avoid them). It is a
// fmt.Stringer so the rendering only happens when a journal is wired.
type procList []proc.Info

func (ps procList) String() string {
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

// sortedList renders host names sorted and comma-joined, likewise only
// when formatted.
type sortedList []string

func (hs sortedList) String() string {
	sorted := append([]string(nil), hs...)
	detord.Sort(sorted)
	return strings.Join(sorted, ",")
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
			done(func() {
				var pong wire.Pong
				err := firstErr(err, wire.Decode(env.Body, &pong))
				cb(pong, err)
			})
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
		// finding minimum-hop physical routes, as in the paper.
		if old, ok := l.routes[string(dest)]; !ok || bytes.Count(rest, []byte{'/'})+1 < len(old) {
			path := strings.Split(string(rest), "/")
			l.routes[path[len(path)-1]] = path
		}
		if !l.knownHosts[string(dest)] { // the lookup copies nothing; the insert would
			l.knownHosts[string(dest)] = true
		}
	}
}

// uncovered merges the flood's explicit failures with known hosts that
// contributed nothing — hosts whose LPM (or whole machine) is gone, the
// situation in which the genealogy snapshot becomes a forest.
func (l *LPM) uncovered(f flooded) []string {
	missing := make(map[string]bool)
	for _, h := range f.partial {
		missing[h] = true
	}
	for h := range l.knownHosts {
		missing[h] = true
	}
	for _, h := range f.hosts {
		delete(missing, h)
	}
	if len(missing) == 0 {
		return nil
	}
	return detord.Keys(missing)
}
