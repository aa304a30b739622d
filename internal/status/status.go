// Package status defines the PPM's live-introspection report: a
// structured, deterministic per-host summary of what every layer of the
// installation is doing right now — kernel process table, scheduler
// timer backlog, the LPM's sibling-circuit table with per-circuit state
// and age, the reliability layer's reply-cache / in-flight-marker /
// retry-backoff occupancy, the flight-recorder ring occupancy, and
// per-op latency percentiles. Reports are built by small Status() hooks
// on each layer, gathered cluster-wide by the LPM's status sweep (a
// read-only flood over the sibling circuits), and rendered as a
// dashboard: one sorted row per host, virtual-time-stamped, with an
// explicit unreachable-host list when the cluster is partitioned.
//
// Everything here is deterministic: rows are sorted, durations render
// as duration strings, the load average is carried as a fixed-point
// integer — no floats ever reach the output, so two same-seed sweeps
// are byte-identical.
package status

import (
	"fmt"
	"strings"
	"time"

	"ppm/internal/detord"
	"ppm/internal/wire"
)

// CircuitStatus is one sibling circuit in a host's circuit table.
type CircuitStatus struct {
	Peer  string
	State string        // circuit lifecycle state ("established", "suspect", ...)
	Age   time.Duration // virtual time since the circuit authenticated
	// Suspicion is the accrual failure detector's current level for the
	// peer (0 = no doubt); nonzero renders as a /sN suffix in the row.
	Suspicion int
}

// OpLatency is the latency envelope of one sibling-RPC op type as seen
// from this host's LPM (request send to response receipt, retries
// included in the last attempt's RTT).
type OpLatency struct {
	Op            string
	Count         uint64
	P50, P95, P99 time.Duration
}

// Report is one host's live status. The slices are owned by the report
// and reused across rebuilds (Reset truncates, builders append), so a
// steady-state local rebuild allocates nothing.
type Report struct {
	Host string
	At   time.Duration // virtual time the report was built

	// kernel
	ProcsLive  int   // user's live (running/stopped) processes
	ProcsTotal int   // user's table entries, exited included
	Load100    int64 // load average x100 (fixed-point, no floats)

	// sim
	TimersPending int // events pending on the host-shared scheduler

	// daemon
	DaemonUp   bool
	DaemonLPMs int // LPM registrations the pmd knows

	// simnet
	NetUp    bool
	NetConns int // open circuit endpoints on the host

	// lpm
	Circuits       []CircuitStatus
	PendingReqs    int // requests awaiting a response
	RetryBackoffs  int // retry timers currently waiting to refire
	ReplyCache     int // at-most-once cached replies held
	InflightOps    int // in-flight execution markers held
	JournalLen     int
	JournalDropped uint64
	OpLatencies    []OpLatency
}

// Reset clears the report for rebuilding, retaining slice capacity.
func (r *Report) Reset(host string, at time.Duration) {
	r.Host, r.At = host, at
	r.ProcsLive, r.ProcsTotal, r.Load100 = 0, 0, 0
	r.TimersPending = 0
	r.DaemonUp, r.DaemonLPMs = false, 0
	r.NetUp, r.NetConns = false, 0
	r.Circuits = r.Circuits[:0]
	r.PendingReqs, r.RetryBackoffs = 0, 0
	r.ReplyCache, r.InflightOps = 0, 0
	r.JournalLen, r.JournalDropped = 0, 0
	r.OpLatencies = r.OpLatencies[:0]
}

// Fields walks the report in wire order (it is a wire.Message; the
// status sweep carries it pre-encoded, in a flood echo's Reports or in
// wire.StatusResp.Report).
func (r *Report) Fields(c *wire.Coder) {
	c.Size(128 + 32*len(r.Circuits) + 48*len(r.OpLatencies))
	c.Str(&r.Host)
	c.Duration(&r.At)
	c.Int(&r.ProcsLive)
	c.Int(&r.ProcsTotal)
	c.I64(&r.Load100)
	c.Int(&r.TimersPending)
	c.Bool(&r.DaemonUp)
	c.Int(&r.DaemonLPMs)
	c.Bool(&r.NetUp)
	c.Int(&r.NetConns)
	for i, n := 0, wire.Len(c, &r.Circuits); c.More(i, n); i++ {
		cs := wire.Elem(c, &r.Circuits, i)
		c.Str(&cs.Peer)
		c.Str(&cs.State)
		c.Duration(&cs.Age)
		c.Int(&cs.Suspicion)
	}
	c.Int(&r.PendingReqs)
	c.Int(&r.RetryBackoffs)
	c.Int(&r.ReplyCache)
	c.Int(&r.InflightOps)
	c.Int(&r.JournalLen)
	c.U64(&r.JournalDropped)
	for i, n := 0, wire.Len(c, &r.OpLatencies); c.More(i, n); i++ {
		o := wire.Elem(c, &r.OpLatencies, i)
		c.Str(&o.Op)
		c.U64(&o.Count)
		c.Duration(&o.P50)
		c.Duration(&o.P95)
		c.Duration(&o.P99)
	}
}

// Sweep is one cluster-wide status gather: the origin's own report plus
// one per reachable remote host, and the explicit list of hosts that
// could not be reached (sorted). Reports are sorted by host.
type Sweep struct {
	At          time.Duration // virtual time the sweep completed
	Origin      string
	User        string
	Reports     []Report
	Unreachable []string
}

// Sort puts reports in host order and the unreachable list in name
// order (in place).
func (s *Sweep) Sort() {
	detord.SortBy(s.Reports, func(r Report) string { return r.Host })
	detord.Sort(s.Unreachable)
}

// load renders a x100 fixed-point load average without float formatting.
func load(l100 int64) string {
	if l100 < 0 {
		l100 = 0
	}
	return fmt.Sprintf("%d.%02d", l100/100, l100%100)
}

func (r *Report) writeRow(b *strings.Builder) {
	daemon := "down"
	if r.DaemonUp {
		daemon = "up"
	}
	fmt.Fprintf(b, "%-8s procs=%d/%d load=%s timers=%d daemon=%s/%d conns=%d",
		r.Host, r.ProcsLive, r.ProcsTotal, load(r.Load100),
		r.TimersPending, daemon, r.DaemonLPMs, r.NetConns)
	b.WriteString(" circ=[")
	for i, c := range r.Circuits {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%s:%s/%v", c.Peer, c.State, c.Age)
		if c.Suspicion > 0 {
			fmt.Fprintf(b, "/s%d", c.Suspicion)
		}
	}
	fmt.Fprintf(b, "] pend=%d bkoff=%d cache=%d infl=%d journal=%d/%d",
		r.PendingReqs, r.RetryBackoffs, r.ReplyCache, r.InflightOps,
		r.JournalLen, r.JournalDropped)
	b.WriteString(" ops=[")
	for i, o := range r.OpLatencies {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%s:n=%d/%v/%v/%v", o.Op, o.Count, o.P50, o.P95, o.P99)
	}
	b.WriteString("]")
}

// Render returns the sweep as the operator-facing dashboard: a
// virtual-time-stamped header, one sorted row per collected host, and
// the unreachable list (when any). Byte-identical across same-seed
// runs.
func (s *Sweep) Render() string {
	var b strings.Builder
	total := len(s.Reports) + len(s.Unreachable)
	fmt.Fprintf(&b, "=== cluster status @ T+%v origin=%s user=%s (%d/%d hosts) ===\n",
		s.At, s.Origin, s.User, len(s.Reports), total)
	for i := range s.Reports {
		s.Reports[i].writeRow(&b)
		b.WriteByte('\n')
	}
	if len(s.Unreachable) > 0 {
		fmt.Fprintf(&b, "unreachable: %s\n", strings.Join(s.Unreachable, ","))
	}
	return b.String()
}
