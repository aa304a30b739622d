package lpm

import (
	"fmt"
	"time"

	"ppm/internal/detord"
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/status"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The live-introspection layer: every LPM can render a structured
// status.Report of its own host (BuildStatus) and gather one from every
// host in the installation (StatusSweep). The gather floods the sibling
// graph, each hop adding its encoded report to the echo; hosts the
// flood missed are asked by a point-to-point StatusReq, which carries
// no operation id because building a report is read-only — a
// retransmission that re-executes just rebuilds the report.

// rttOps lists the ops whose round trips are tracked per op (the
// manifest's column) in the order status reports render them: by name.
// rttRegNames holds each one's registry histogram name, precomputed so
// the response hot path never concatenates strings.
var rttOps, rttRegNames = func() (ops []wire.MsgType, names [wire.NumOps]string) {
	for t := wire.MsgType(1); int(t) < wire.NumOps; t++ {
		if t.RTTTracked() {
			ops = append(ops, t)
			names[t] = "lpm.request_rtt." + t.String()
		}
	}
	detord.SortBy(ops, wire.MsgType.String)
	return ops, names
}()

// opRTT is one op type's round trips at an LPM: its own histogram and the
// registry's, looked up once, in the allocation the first took alone.
type opRTT struct {
	metrics.Histogram
	reg *metrics.Histogram
}

// observeOpRTT records one request round trip under its op type: in the
// installation-wide registry (per-op SLO percentiles in MetricsReport)
// and in this LPM's own histogram (per-op percentiles in its status
// report).
func (l *LPM) observeOpRTT(t wire.MsgType, rtt time.Duration) {
	if !t.RTTTracked() {
		return
	}
	if l.rtts[t] == nil {
		l.rtts[t] = &opRTT{*metrics.NewHistogram(), l.obs.Metrics().Histogram(rttRegNames[t])}
	}
	l.rtts[t].Observe(rtt)
	l.rtts[t].reg.Observe(rtt)
}

// BuildStatus fills r with this host's live status. The report's slices
// are reused across rebuilds, so a steady-state rebuild allocates
// nothing.
//
//ppmlint:hotpath pin=TestBuildStatusZeroAlloc
func (l *LPM) BuildStatus(r *status.Report) {
	now := l.sched.Now()
	r.Reset(l.Host(), now.Duration())
	r.ProcsLive, r.ProcsTotal, r.Load100 = l.kern.Status(l.user.Name)
	r.TimersPending = l.sched.Pending()
	if l.dmns != nil {
		r.DaemonUp, r.DaemonLPMs = l.dmns.Status()
	}
	r.NetUp, r.NetConns = l.net.Status(l.Host())
	circ := r.Circuits
	for _, p := range l.ordered { // in host order
		if p.sb == nil {
			continue
		}
		// The circuit machine is the authoritative state; "breaking"
		// overlays it for the window between a severed link and its
		// detection, which the machine itself cannot see yet.
		st := p.state.String()
		if p.sb.conn.Breaking() {
			st = "breaking"
		}
		circ = append(circ, status.CircuitStatus{
			Peer: p.host, State: st, Age: now.Sub(p.sb.openedAt),
			Suspicion: p.sb.suspicion,
		})
	}
	r.Circuits = circ
	r.PendingReqs = len(l.pending)
	r.RetryBackoffs = l.retryBackoffs
	r.ReplyCache = l.replies.Len()
	r.InflightOps = l.replies.Running()
	r.JournalLen = l.obs.Journal().Len()
	r.JournalDropped = l.obs.Journal().Dropped()
	ops := r.OpLatencies
	for _, t := range rttOps {
		h := l.rtts[t]
		if h == nil || h.Count() == 0 {
			continue
		}
		ops = append(ops, status.OpLatency{
			Op:    t.String(),
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	r.OpLatencies = ops
}

// StatusSweep gathers live status reports from the user's LPMs on the
// given hosts and delivers the completed sweep: one report per
// reachable host plus the sorted list of hosts that could not be
// reached.
//
// The gather is a flood over the sibling graph (MsgStatusReq as its
// inner request), so it opens no circuit and its origin pays for its
// own children only. A target the flood could not reach through a
// circuit it holds (the flood's Partial list) is unreachable: the
// flood leg to it already went through the retry engine. A target the
// flood neither covered nor named — a host with no LPM of the user yet,
// or one no circuit leads to — is asked directly, as one retried
// point-to-point StatusReq, which the pmd there answers by creating
// the LPM.
//
// The sweep is journaled at the origin only — one status.request naming
// the targets, then one status.report per target as it resolves — so
// the audit can hold every sweep to exactly one report per target.
func (l *LPM) StatusSweep(hosts []string, cb func(status.Sweep, error)) {
	if l.exited {
		l.sched.Defer(func() { cb(status.Sweep{}, ErrExited) })
		return
	}
	l.statusSeq++
	sweepID, seq := fmt.Sprintf("%s#%d", l.Host(), l.statusSeq), int32(l.statusSeq)
	named := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		named[h] = true
	}
	delete(named, "")
	targets := detord.Keys(named)
	l.toolCall("status", func(ctx trace.Context, done func(func())) {
		l.obs.Record(journal.StatusRequest, l.Host(), ctx, journal.SweepRequest(l.user.Name, l.Host(), seq, l.sortedList(targets)))
		sw := &status.Sweep{Origin: l.Host(), User: l.user.Name, Reports: make([]status.Report, 0, len(targets))}
		record := func(host string, ok bool) {
			if !ok {
				l.obs.Metrics().Counter("lpm.status.unreachable").Inc()
				sw.Unreachable = append(sw.Unreachable, host)
			}
			l.obs.Record(journal.StatusReport, l.Host(), ctx, journal.SweepReport(l.user.Name, l.Host(), seq, host, ok))
		}
		// The flood's stamp names it on the wire: the sweep id is for the
		// origin's journal, and every hop would intern a new one.
		inner := wire.Envelope{Type: wire.MsgStatusReq, Body: wire.Encode(&wire.StatusReq{User: l.user.Name})}
		l.startFlood(ctx, inner, func(f flooded) {
			resolved := make(map[string]bool, len(targets))
			nc, no := 0, 0 // the reports' lists share two arrays, made once at the length counted first
			l.eachReport(f.reports, named, func(rep *status.Report) {
				nc, no = nc+len(rep.Circuits), no+len(rep.OpLatencies)
			})
			circs, ops := make([]status.CircuitStatus, 0, nc), make([]status.OpLatency, 0, no)
			l.eachReport(f.reports, named, func(rep *status.Report) {
				kept := *rep
				kept.Circuits, kept.OpLatencies = carve(&circs, rep.Circuits), carve(&ops, rep.OpLatencies)
				sw.Reports = append(sw.Reports, kept)
				resolved[rep.Host] = true
				record(rep.Host, true)
			})
			for _, host := range f.partial {
				if named[host] && !resolved[host] {
					resolved[host] = true
					record(host, false)
				}
			}
			outstanding := 1 // held until every direct ask is issued
			finish := func() {
				if outstanding--; outstanding == 0 {
					sw.At = l.sched.Now().Duration()
					sw.Sort()
					done(func() { cb(*sw, nil) })
				}
			}
			var body []byte
			for _, host := range targets {
				if resolved[host] {
					continue
				}
				if body == nil {
					body = wire.Encode(&wire.StatusReq{User: l.user.Name, Sweep: sweepID})
				}
				outstanding++
				l.remoteCall(ctx, host, wire.MsgStatusReq, body, func(env wire.Envelope, err error) {
					var resp wire.StatusResp
					var rep status.Report
					err = answer(err, wire.Decode(env.Body, &resp), &resp.OK, &resp.Reason)
					if err = firstErr(err, wire.Decode(resp.Report, &rep)); err == nil {
						sw.Reports = append(sw.Reports, rep)
					}
					record(host, err == nil)
					finish()
				})
			}
			finish()
		})
	})
}

// eachReport decodes each of a status flood's reports from a named host
// into the LPM's scratch report and hands it to fn to copy what it keeps.
func (l *LPM) eachReport(reports wire.List[string], named map[string]bool, fn func(*status.Report)) {
	rep := &l.statusScratch
	for r := wire.StringsOf(reports); ; {
		b, ok := r.Next()
		if !ok {
			return
		}
		if wire.DecodeHop(b, rep, l.user.Names) == nil && named[rep.Host] {
			fn(rep)
		}
	}
}

// carve appends s to *all, long enough already, and returns that run
// capped at its end (nil if empty): an append to it copies it out.
func carve[T any](all *[]T, s []T) []T {
	if len(s) == 0 {
		return nil
	}
	i := len(*all)
	*all = append(*all, s...)
	return (*all)[i:len(*all):len(*all)]
}
