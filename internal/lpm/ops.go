package lpm

import (
	"bytes"
	"fmt"
	"time"

	"ppm/internal/calib"
	"ppm/internal/detord"
	"ppm/internal/history"
	"ppm/internal/journal"
	"ppm/internal/kernel"
	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// Operations exposed to tools. Each call models the tool <-> LPM
// exchange over a local IPC socket: the request pays one tool leg of
// CPU before processing and the reply pays another before the callback
// runs. All callbacks execute on the shared scheduler.

// toolCall wraps an operation in the two tool legs: the request pays
// one leg before op runs, and op must route its completion through the
// provided done function, which pays the reply leg before running the
// continuation. When tracing is enabled a root "op.<name>" span covers
// the whole exchange and its context is handed to op for propagation;
// on untraced runs ctx is invalid and every downstream span call
// no-ops.
func (l *LPM) toolCall(name string, op func(ctx trace.Context, done func(func()))) {
	l.obs.Metrics().Handle(&l.requestsServed, "lpm.requests_served").Inc()
	l.touch()
	root := l.obs.Tracer().StartTrace(l.Host(), "op."+name)
	ctx := root.Context()
	l.execSpan(ctx, "exec.tool_leg", calib.ToolLeg, func() {
		op(ctx, func(fin func()) {
			l.execSpan(ctx, "exec.tool_leg", calib.ToolLeg, func() {
				root.End()
				fin()
			})
		})
	})
}

// execSpan charges cost on this host's CPU under a span named name — an
// "exec.*" one for kernel work, so post-hoc attribution sees it as the
// profiler's kernel phase instead of an unattributed gap. With an
// invalid ctx the span no-ops and only the CPU charge remains. The
// untraced fast path skips the wrapping closure entirely:
// instrumentation must not tax hot paths it is not observing.
func (l *LPM) execSpan(ctx trace.Context, name string, cost time.Duration, fn func()) {
	if !l.obs.Tracer().Enabled() {
		l.kern.ExecCPU(cost, fn)
		return
	}
	sp := l.obs.Tracer().StartSpan(l.Host(), name, ctx)
	l.kern.ExecCPU(cost, func() {
		sp.End()
		fn()
	})
}

// Adopt asks the LPM to adopt a local process (and thereby its future
// descendants). Adoption may be necessary when the user did not invoke
// the PPM at login time, and is the hook a debugger would use.
func (l *LPM) Adopt(pid proc.PID, cb func(error)) {
	if l.exited {
		l.sched.Defer(func() { cb(ErrExited) })
		return
	}
	l.toolCall("adopt", func(ctx trace.Context, done func(func())) {
		l.execSpan(ctx, "exec.adopt", calib.Adopt, func() {
			err := l.adopt(ctx, pid)
			done(func() { cb(err) })
		})
	})
}

// adopt adopts a local process for the user under ctx, journaling it
// and keeping its record.
func (l *LPM) adopt(ctx trace.Context, pid proc.PID) (err error) {
	l.withTraceCtx(ctx, func() { err = l.kern.Adopt(pid, l.user.Name) })
	if err == nil {
		l.obs.Record(journal.LPMAdopt, l.Host(), ctx, journal.Adopt(l.user.Name, int32(pid)))
		if info, ierr := l.kern.Info(pid); ierr == nil {
			l.records[pid] = info
		}
	}
	return err
}

// SetTraceMask adjusts event granularity for an adopted process.
func (l *LPM) SetTraceMask(pid proc.PID, mask kernel.TraceMask, cb func(error)) {
	if l.exited {
		l.sched.Defer(func() { cb(ErrExited) })
		return
	}
	l.toolCall("trace_mask", func(ctx trace.Context, done func(func())) {
		err := l.kern.SetTraceMask(pid, l.user.Name, mask)
		done(func() { cb(err) })
	})
}

// AddWatch installs a history-dependent trigger (event driven user
// defined actions).
func (l *LPM) AddWatch(w *history.Watch) int { return l.store.AddWatch(w) }

// RemoveWatch uninstalls a trigger.
func (l *LPM) RemoveWatch(id int) { l.store.RemoveWatch(id) }

// --- process creation ---

// createLocal forks, execs and adopts a process on this host; the
// within-host creation path of Table 2 (77 ms).
func (l *LPM) createLocal(ctx trace.Context, req wire.CreateProc, cb func(wire.CreateAck)) {
	l.execSpan(ctx, "exec.create_dispatch", calib.CreateDispatch, func() {
		l.execSpan(ctx, "exec.fork", calib.Fork, func() {
			var p *kernel.Process
			var err error
			l.withTraceCtx(ctx, func() { p, err = l.kern.Fork(l.pid, req.Name) })
			if err != nil {
				cb(wire.CreateAck{OK: false, Reason: err.Error()})
				return
			}
			delete(l.myPids, p.PID) // it is a user process, not an LPM part
			parent := req.Parent
			if parent.IsZero() {
				parent = proc.GPID{Host: l.Host(), PID: l.pid}
			}
			//ppmlint:allow errdrop genealogy bookkeeping on a process forked just above; only fails if it vanished
			_ = l.kern.SetLogicalParent(p.PID, parent)
			//ppmlint:allow errdrop genealogy bookkeeping on a process forked just above; only fails if it vanished
			_ = l.kern.SetForeground(p.PID, req.Foreground)
			l.execSpan(ctx, "exec.exec", calib.Exec, func() {
				//ppmlint:allow errdrop exec outcome reaches the user through kernel events, not this return
				l.withTraceCtx(ctx, func() { _ = l.kern.Exec(p.PID, req.Name) })
				l.execSpan(ctx, "exec.adopt", calib.Adopt, func() {
					if err := l.adopt(ctx, p.PID); err != nil {
						cb(wire.CreateAck{OK: false, Reason: err.Error()})
						return
					}
					cb(wire.CreateAck{OK: true, ID: proc.GPID{Host: l.Host(), PID: p.PID}})
				})
			})
		})
	})
}

// createForRemote is the creation server path: fork and adopt, ack
// immediately, and let exec complete asynchronously (its completion
// arrives at the requester as a kernel event via this LPM). This is the
// paper's 177 ms remote creation once a circuit exists.
func (l *LPM) createForRemote(ctx trace.Context, req wire.CreateProc, ack func(wire.CreateAck)) {
	l.execSpan(ctx, "exec.fork", calib.Fork, func() {
		var p *kernel.Process
		var err error
		l.withTraceCtx(ctx, func() { p, err = l.kern.Fork(l.pid, req.Name) })
		if err != nil {
			ack(wire.CreateAck{OK: false, Reason: err.Error()})
			return
		}
		delete(l.myPids, p.PID)
		//ppmlint:allow errdrop genealogy bookkeeping on a process forked just above; only fails if it vanished
		_ = l.kern.SetLogicalParent(p.PID, req.Parent)
		//ppmlint:allow errdrop genealogy bookkeeping on a process forked just above; only fails if it vanished
		_ = l.kern.SetForeground(p.PID, req.Foreground)
		l.execSpan(ctx, "exec.adopt", calib.Adopt, func() {
			if err := l.adopt(ctx, p.PID); err != nil {
				ack(wire.CreateAck{OK: false, Reason: err.Error()})
				return
			}
			ack(wire.CreateAck{OK: true, ID: proc.GPID{Host: l.Host(), PID: p.PID}})
			// exec continues after the ack (the span is async relative
			// to its parent, like kernel event delivery).
			l.execSpan(ctx, "exec.exec", calib.Exec, func() {
				//ppmlint:allow errdrop exec outcome reaches the user through kernel events, not this return
				l.withTraceCtx(ctx, func() { _ = l.kern.Exec(p.PID, req.Name) })
			})
		})
	})
}

// Create starts a process with the given name on host (local or
// remote), adopted by the user's PPM, with the given logical parent.
func (l *LPM) Create(host, name string, parent proc.GPID, cb func(proc.GPID, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(proc.GPID{}, ErrExited) })
		return
	}
	l.toolCall("create", func(ctx trace.Context, done func(func())) {
		if l.routeOf(proc.GPID{Host: host}) != there {
			req := wire.CreateProc{User: l.user.Name, Name: name, Parent: parent}
			l.createLocal(ctx, req, func(a wire.CreateAck) {
				done(func() {
					if !a.OK {
						cb(proc.GPID{}, refused(a.Reason))
						return
					}
					cb(a.ID, nil)
				})
			})
			return
		}
		l.via(ctx, host).create(l.user.Name, name, parent, func(id proc.GPID, err error) {
			done(func() { cb(id, err) })
		})
	})
}

// --- process control ---

// applyControl performs a control operation on a local process.
func (l *LPM) applyControl(target proc.PID, op wire.ControlOp, sig proc.Signal) wire.ControlResp {
	var err error
	switch op {
	case wire.OpStop:
		err = l.kern.Signal(target, proc.SIGSTOP)
	case wire.OpForeground:
		if err = l.kern.SetForeground(target, true); err == nil {
			err = l.kern.Signal(target, proc.SIGCONT)
		}
	case wire.OpBackground:
		if err = l.kern.SetForeground(target, false); err == nil {
			err = l.kern.Signal(target, proc.SIGCONT)
		}
	case wire.OpKill:
		err = l.kern.Signal(target, proc.SIGKILL)
	case wire.OpSignal:
		err = l.kern.Signal(target, sig)
	default:
		err = fmt.Errorf("%w: op %v", ErrBadRequest, op)
	}
	l.obs.Record(journal.LPMControl, l.Host(), l.obs.Tracer().Active(), journal.Control(op.String(), int32(target), err == nil))
	if err != nil {
		return wire.ControlResp{OK: false, Reason: err.Error()}
	}
	info, ierr := l.kern.Info(target)
	if ierr == nil {
		l.records[target] = info
	}
	return wire.ControlResp{OK: true, State: info.State}
}

// Control changes the state of one process anywhere in the network:
// stop, foreground, background, kill, or an arbitrary signal. There are
// no interprocess constraints based on creation dependencies.
func (l *LPM) Control(target proc.GPID, op wire.ControlOp, sig proc.Signal, cb func(wire.ControlResp, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(wire.ControlResp{}, ErrExited) })
		return
	}
	l.toolCall("control", func(ctx trace.Context, done func(func())) {
		if l.routeOf(target) == here {
			csp := l.obs.Tracer().StartSpan(l.Host(), "dispatch.control", ctx)
			l.kern.ExecCPU(calib.ControlAction, func() {
				csp.End()
				var resp wire.ControlResp
				l.withTraceCtx(ctx, func() { resp = l.applyControl(target.PID, op, sig) })
				done(func() { cb(resp, nil) })
			})
			return
		}
		req := wire.Control{User: l.user.Name, Target: target, Op: op, Signal: sig}
		l.remoteCall(ctx, target.Host, wire.MsgControl, wire.Encode(&req), func(env wire.Envelope, err error) {
			var resp wire.ControlResp
			err = firstErr(err, wire.Decode(env.Body, &resp))
			r := resp // the body is borrowed: decoded now, and copied out of the decoded-into resp
			done(func() { cb(r, err) })
		})
	})
}

// --- local information gathering ---

// localInfos appends to dst snapshot records for the user's processes
// on this host, excluding the LPM's own dispatcher and handlers, merged
// with preserved exit records.
func (l *LPM) localInfos(dst []proc.Info) []proc.Info {
	start := len(dst)
	all := l.kern.AppendProcessesOf(dst, l.user.Name)
	dst = all[:start]
	for _, p := range all[start:] {
		if !l.myPids[p.ID.PID] {
			dst = append(dst, p)
		}
	}
	// Records the kernel no longer holds (reaped) but the LPM retained,
	// in pid order so the encoded fragment is byte-stable: a walk beside
	// the pid-sorted kernel list skips those it still holds.
	live, i := dst[start:], 0
	for _, pid := range detord.Keys(l.records) {
		for i < len(live) && live[i].ID.PID < pid {
			i++
		}
		if i < len(live) && live[i].ID.PID == pid || l.myPids[pid] {
			continue
		}
		if _, err := l.kern.Lookup(pid); err != nil {
			dst = append(dst, l.records[pid])
		}
	}
	return dst
}

// gatherCost is the CPU demand of collecting and encoding snapshot
// information for n local processes.
func gatherCost(n int) time.Duration {
	return time.Duration(n) * calib.GatherPerProc
}

// Stats returns the preserved resource-consumption record of a process
// (typically exited) on any host.
func (l *LPM) StatsOf(target proc.GPID, cb func(proc.Info, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(proc.Info{}, ErrExited) })
		return
	}
	l.toolCall("stats", func(ctx trace.Context, done func(func())) {
		if l.routeOf(target) == here {
			info, err := l.localStats(target.PID)
			done(func() { cb(info, err) })
			return
		}
		l.via(ctx, target.Host).stats(l.user.Name, target, func(info proc.Info, err error) {
			done(func() { cb(info, err) })
		})
	})
}

func (l *LPM) localStats(pid proc.PID) (proc.Info, error) {
	if info, ok := l.store.ExitedInfo(proc.GPID{Host: l.Host(), PID: pid}); ok {
		return info, nil
	}
	if info, err := l.kern.Info(pid); err == nil {
		return info, nil
	}
	if info, ok := l.records[pid]; ok {
		return info, nil
	}
	return proc.Info{}, fmt.Errorf("%w: no record of pid %d", ErrBadRequest, pid)
}

// FDs returns the open descriptors of a process on any host (one of the
// paper's planned tools, implemented).
func (l *LPM) FDs(target proc.GPID, cb func([]string, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(nil, ErrExited) })
		return
	}
	l.toolCall("fds", func(ctx trace.Context, done func(func())) {
		if l.routeOf(target) == here {
			open, err := l.localFDs(target.PID)
			done(func() { cb(open, err) })
			return
		}
		req := wire.FDReq{User: l.user.Name, Target: target}
		l.remoteCall(ctx, target.Host, wire.MsgFDReq, wire.Encode(&req), func(env wire.Envelope, err error) {
			var resp wire.FDResp
			err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
			open := resp.Open
			done(func() { cb(open, err) })
		})
	})
}

func (l *LPM) localFDs(pid proc.PID) ([]string, error) {
	p, err := l.kern.Lookup(pid)
	if err != nil {
		return nil, err
	}
	return p.OpenFDs(), nil
}

// HistoryOf queries the preserved event trace of the user's LPM on host
// (this one's own store when host is empty or its own): events are
// recorded by the LPM local to each process, and remain accessible
// across the network even for activity that happened while the user
// was logged off.
func (l *LPM) HistoryOf(host string, q history.Query, cb func([]proc.Event, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(nil, ErrExited) })
		return
	}
	l.toolCall("history", func(ctx trace.Context, done func(func())) {
		if l.routeOf(proc.GPID{Host: host}) != there {
			evs := l.store.Select(q)
			done(func() { cb(evs, nil) })
			return
		}
		l.via(ctx, host).history(l.user.Name, q, func(evs []proc.Event, err error) {
			done(func() { cb(evs, err) })
		})
	})
}

// --- inbound request dispatch ---

// handleRequest serves a request arriving over a sibling circuit. The
// per-endpoint protocol cost has already been charged by onSiblingMsg.
//
// Requests carrying an operation id pass through the at-most-once
// filter first: an already-executed operation is answered from the
// reply cache without re-executing, and a duplicate of an operation
// still in flight is dropped (the sender's next retry finds the cached
// reply).
func (l *LPM) handleRequest(sb *sibling, env wire.Envelope) {
	l.obs.Metrics().Handle(&l.requestsServed, "lpm.requests_served").Inc()
	ctx := trace.Context{Trace: env.TraceID, Span: env.SpanID}

	if env.Type == wire.MsgCCSUpdate {
		var upd wire.CCSUpdate
		if wire.Decode(env.Body, &upd) == nil && upd.CCSHost != "" {
			l.rec.SetCCS(upd.CCSHost)
		}
		return // One-way: no reply.
	}

	reply := replyTo{l: l, sb: sb, reqID: env.ReqID, ctx: ctx}
	if env.OpID != 0 && env.Type.AtMostOnce() {
		now := l.sched.Now().Duration()
		// The peer's incarnation scopes its op ids: a restarted origin
		// renumbers from zero under a fresh incarnation, so its fresh
		// operations can never hit a predecessor's cache entries.
		key := wire.OpKey{Origin: sb.peer.host, Inc: sb.inc, Seq: env.OpID}
		switch r, replied, running := l.replies.Lookup(key, now); {
		case replied:
			// Replay: the operation already executed; answer the
			// retransmit from the cache under the new ReqID, with a copy
			// (the cache may evict and reuse its own, DESIGN.md §10).
			l.obs.Record(journal.LPMOpReplay, l.Host(), ctx, journal.Op(l.user.Name, sb.peer.host, sb.inc, env.OpID, r.Type.String()))
			reply.send(r.Type, bytes.Clone(r.Body))
			return
		case running:
			l.obs.Metrics().Counter("lpm.dedup.inflight_drops").Inc()
			return
		}
		l.replies.Start(key, now)
		l.obs.Record(journal.LPMOpExec, l.Host(), ctx, journal.Op(l.user.Name, sb.peer.host, sb.inc, env.OpID, env.Type.String()))
		reply.op = env.OpID
	}

	switch env.Type {
	case wire.MsgBroadcast:
		l.handleFlood(env, reply)

	case wire.MsgRelay:
		l.handleRelay(env, reply)

	default:
		l.serveRequest(env, reply)
	}
}

// replyTo is where a served request's answer goes, as a value: its
// circuit, id and trace context, and the op id of an at-most-once
// operation, which with the circuit's peer and incarnation keys the
// reply cache. fn, when set, takes the answer instead.
type replyTo struct {
	l     *LPM
	sb    *sibling
	reqID uint64
	ctx   trace.Context
	op    uint64 // 0: not an at-most-once operation
	fn    func(wire.MsgType, []byte)
}

// send answers the request with a body of type t.
func (r replyTo) send(t wire.MsgType, body []byte) {
	if r.fn != nil {
		r.fn(t, body)
		return
	}
	if r.op != 0 {
		r.l.replies.Put(wire.OpKey{Origin: r.sb.peer.host, Inc: r.sb.inc, Seq: r.op}, t, body, r.l.sched.Now().Duration())
	}
	h := r.l.newHop(r.sb, wire.Envelope{Type: t, ReqID: r.reqID, Body: body, TraceID: r.ctx.Trace, SpanID: r.ctx.Span}, true)
	h.reuse = r.op == 0 && t == wire.MsgBroadcastResp // an echo no entry keeps: garbage once sent
	r.l.kern.ExecCPU(t.EndpointCost(), h.run)
}

// serveRequest executes one point-to-point request and answers it
// through reply; the transport (direct circuit, relay or tool socket)
// is reply's concern. Its trace context is the request's, under which
// the serving-side kernel work records spans.
func (l *LPM) serveRequest(env wire.Envelope, reply replyTo) {
	switch env.Type {
	case wire.MsgCreateProc:
		var req wire.CreateProc
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgCreateAck, wire.Encode(&wire.CreateAck{OK: false, Reason: "bad create request"}))
			return
		}
		l.createForRemote(reply.ctx, req, func(a wire.CreateAck) {
			reply.send(wire.MsgCreateAck, wire.Encode(&a))
		})

	case wire.MsgControl:
		var req wire.Control
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgControlResp, wire.Encode(&wire.ControlResp{OK: false, Reason: "bad control request"}))
			return
		}
		// Copied out: a closure capturing the decoded-into req would take
		// it by reference and move it to the heap.
		pid, op, sig := req.Target.PID, req.Op, req.Signal
		csp := l.obs.Tracer().StartSpan(l.Host(), "dispatch.control", reply.ctx)
		l.kern.ExecCPU(calib.ControlAction, func() {
			csp.End()
			var resp wire.ControlResp
			l.withTraceCtx(reply.ctx, func() { resp = l.applyControl(pid, op, sig) })
			reply.send(wire.MsgControlResp, wire.Encode(&resp))
		})

	case wire.MsgSnapshotReq:
		var req wire.SnapshotReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgSnapshotResp, wire.Encode(&wire.SnapshotResp{OK: false, Reason: "bad snapshot request"}))
			return
		}
		infos := l.localInfos(nil)
		l.execSpan(reply.ctx, "exec.gather", gatherCost(len(infos)), func() {
			reply.send(wire.MsgSnapshotResp, wire.Encode(&wire.SnapshotResp{OK: true, Procs: infos}))
		})

	case wire.MsgStatsReq:
		var req wire.StatsReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgStatsResp, wire.Encode(&wire.StatsResp{OK: false, Reason: "bad stats request"}))
			return
		}
		info, serr := l.localStats(req.Target.PID)
		resp := wire.StatsResp{OK: serr == nil, Info: info}
		if serr != nil {
			resp.Reason = serr.Error()
		}
		reply.send(wire.MsgStatsResp, wire.Encode(&resp))

	case wire.MsgFDReq:
		var req wire.FDReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgFDResp, wire.Encode(&wire.FDResp{OK: false, Reason: "bad fd request"}))
			return
		}
		open, ferr := l.localFDs(req.Target.PID)
		resp := wire.FDResp{OK: ferr == nil, Open: open}
		if ferr != nil {
			resp.Reason = ferr.Error()
		}
		reply.send(wire.MsgFDResp, wire.Encode(&resp))

	case wire.MsgHistoryReq:
		var req wire.HistoryReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgHistoryResp, wire.Encode(&wire.HistoryResp{OK: false, Reason: "bad history request"}))
			return
		}
		q := history.Query{Proc: req.Proc, Since: req.Since, Limit: int(req.Limit)}
		for _, k := range req.Kinds {
			q.Kinds = append(q.Kinds, proc.EventKind(k))
		}
		evs := l.store.Select(q)
		reply.send(wire.MsgHistoryResp, wire.Encode(&wire.HistoryResp{OK: true, Events: evs}))

	case wire.MsgWatch:
		var req wire.WatchReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgWatchResp, wire.Encode(&wire.WatchResp{OK: false, Reason: "bad watch request"}))
			return
		}
		if req.Remove {
			l.store.RemoveWatch(int(req.ID))
			reply.send(wire.MsgWatchResp, wire.Encode(&wire.WatchResp{OK: true, ID: req.ID}))
			return
		}
		action := req // capture
		w := &history.Watch{
			Kind:   proc.EventKind(req.Kind),
			Signal: req.Signal,
			Proc:   req.Proc,
			Action: func(proc.Event) { l.runWatchAction(action) },
		}
		id := l.store.AddWatch(w)
		reply.send(wire.MsgWatchResp, wire.Encode(&wire.WatchResp{OK: true, ID: int32(id)}))

	case wire.MsgStatusReq:
		var req wire.StatusReq
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgStatusResp, wire.Encode(&wire.StatusResp{OK: false, Reason: "bad status request"}))
			return
		}
		// Read-only: the report is rebuilt on every (re)transmission, so
		// the op needs no at-most-once identity. Encode before charging
		// the gather cost — the scratch report may be reused by the time
		// the CPU callback runs.
		l.BuildStatus(&l.statusScratch)
		report := wire.Encode(&l.statusScratch)
		l.execSpan(reply.ctx, "exec.gather", gatherCost(l.statusScratch.ProcsTotal), func() {
			reply.send(wire.MsgStatusResp, wire.Encode(&wire.StatusResp{OK: true, Report: report}))
		})

	case wire.MsgPing:
		pong := wire.Pong{
			FromHost: l.Host(),
			CCSHost:  l.rec.CCS(),
			IsCCS:    l.rec.IsCCS(),
		}
		reply.send(wire.MsgPong, wire.Encode(&pong))

	case wire.MsgLinkTest:
		// Heartbeat for the accrual failure detector. The frame's
		// arrival was already observed by the circuit layer; the echo
		// gives the sender's detector a sample in turn.
		var req wire.LinkTest
		if wire.Decode(env.Body, &req) != nil {
			reply.send(wire.MsgError, wire.Encode(&wire.ErrorResp{Reason: "bad linktest"}))
			return
		}
		reply.send(wire.MsgLinkTestResp, wire.Encode(&wire.LinkTestResp{FromHost: l.Host(), Seq: req.Seq}))

	case wire.MsgProcExit:
		// A remote kernel's LPM forwarding a watched process's exit
		// home: append the exit event to the home history store (which
		// fires home-declared watches) and index the final record.
		var req wire.ProcExit
		if wire.Decode(env.Body, &req) != nil || req.User != l.user.Name {
			reply.send(wire.MsgProcExitResp, wire.Encode(&wire.ProcExitResp{OK: false, Reason: "bad exit notification"}))
			return
		}
		l.withTraceCtx(reply.ctx, func() { l.store.Append(req.Event) })
		l.store.RecordExit(req.Info)
		reply.send(wire.MsgProcExitResp, wire.Encode(&wire.ProcExitResp{OK: true}))

	default:
		reply.send(wire.MsgError, wire.Encode(&wire.ErrorResp{Reason: fmt.Sprintf("unhandled %v", env.Type)}))
	}
}

// handleRelay forwards a relayed request one hop (or serves it when
// this host is the destination), sending the response back through
// reply on the circuit it arrived on. The per-hop forward is a single
// attempt: relayed operations carry no op id, so a hop cannot prove a
// lost echo did not execute and must surface the error instead of
// risking a duplicate (see DESIGN.md).
func (l *LPM) handleRelay(env wire.Envelope, reply replyTo) {
	fail := func(reason string) {
		reply.send(wire.MsgRelayResp, wire.Encode(&wire.RelayResp{OK: false, Reason: reason}))
	}
	var rel wire.Relay
	if wire.Decode(env.Body, &rel) != nil || rel.User != l.user.Name {
		fail("bad relay request")
		return
	}
	if rel.Dest == l.Host() {
		inner, derr := wire.DecodeEnvelopeLogged(rel.Inner, l.obs, l.Host())
		if derr != nil || inner.Type == wire.MsgRelay || inner.Type == wire.MsgBroadcast {
			fail("bad relayed payload")
			return
		}
		l.serveRequest(inner, replyTo{l: l, ctx: reply.ctx, fn: func(t wire.MsgType, body []byte) {
			respEnv := wire.Envelope{Type: t, Body: body}
			reply.send(wire.MsgRelayResp, wire.Encode(&wire.RelayResp{OK: true, Inner: respEnv.Encode()}))
		}})
		return
	}
	// Forward along the path.
	if len(rel.Path) == 0 {
		fail("relay path exhausted before destination")
		return
	}
	next := rel.Path[0]
	nsb := l.peers[next].open()
	if nsb == nil {
		fail(fmt.Sprintf("relay: no circuit to next hop %s", next))
		return
	}
	l.obs.Record(journal.LPMRelayForward, l.Host(), reply.ctx, journal.Relay(rel.User, rel.Dest, next))
	fwd := wire.Relay{User: rel.User, Dest: rel.Dest, Path: rel.Path[1:], Inner: rel.Inner}
	l.sendRequest(reply.ctx, nsb, wire.MsgRelay, wire.Encode(&fwd), 0, func(resp wire.Envelope, err error) {
		if err != nil {
			fail(fmt.Sprintf("relay via %s: %v", next, err))
			return
		}
		reply.send(wire.MsgRelayResp, bytes.Clone(resp.Body)) // cached and queued: past the borrow
	})
}

// runWatchAction applies a remotely installed watch's control action:
// locally through the control block, or forwarded when the action's
// target lives on another host — history-dependent events triggering
// process state changes anywhere in the network.
func (l *LPM) runWatchAction(req wire.WatchReq) {
	if l.exited {
		return
	}
	if l.routeOf(req.Target) == here {
		l.kern.ExecCPU(calib.ControlAction, func() {
			_ = l.applyControl(req.Target.PID, req.Op, req.ActionSig)
		})
		return
	}
	body := wire.Encode(&wire.Control{User: l.user.Name, Target: req.Target, Op: req.Op, Signal: req.ActionSig})
	l.remoteCall(trace.Context{}, req.Target.Host, wire.MsgControl, body, func(wire.Envelope, error) {})
}

// WatchOn installs a history-dependent trigger on the user's LPM on
// another host: when a matching event arrives there, op (with sig) is
// applied to target. The returned remover uninstalls it.
func (l *LPM) WatchOn(host string, w *history.Watch, op wire.ControlOp,
	sig proc.Signal, target proc.GPID, cb func(remove func(), err error)) {
	if l.exited {
		l.sched.Defer(func() { cb(nil, ErrExited) })
		return
	}
	l.toolCall("watch", func(ctx trace.Context, done func(func())) {
		req := wire.WatchReq{
			User:      l.user.Name,
			Kind:      uint8(w.Kind),
			Signal:    w.Signal,
			Proc:      w.Proc,
			Op:        op,
			ActionSig: sig,
			Target:    target,
		}
		l.remoteCall(ctx, host, wire.MsgWatch, wire.Encode(&req), func(env wire.Envelope, err error) {
			var resp wire.WatchResp
			err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
			id := resp.ID
			done(func() {
				if err != nil {
					cb(nil, err)
					return
				}
				cb(func() {
					rm := wire.WatchReq{User: l.user.Name, Remove: true, ID: id}
					l.remoteCall(trace.Context{}, host, wire.MsgWatch, wire.Encode(&rm), func(wire.Envelope, error) {})
				}, nil)
			})
		})
	})
}
