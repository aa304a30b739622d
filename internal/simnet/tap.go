package simnet

import (
	"fmt"
	"sort"
	"strings"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/sim"
	"ppm/internal/trace"
)

// TapKind classifies network events.
type TapKind int

// Tap event kinds: the traffic, drops, circuit openings and breaks an
// installed tap observes.
const (
	TapSend TapKind = iota + 1
	TapDeliver
	TapDrop
	TapConnOpen
	TapConnBreak

	// Journal-only kinds: clean closes and injected topology faults are
	// counted and journaled like every other network event but never
	// reach the tap, whose stream stays §7's routing view.
	tapConnClose
	tapHostCrash
	tapHostRestart
	tapPartition
	tapHeal
	tapFlapDown
	tapFlapUp
)

// String names the kind.
func (k TapKind) String() string {
	if k >= TapSend && k <= TapConnBreak {
		return [...]string{"send", "deliver", "drop", "open", "break"}[k-TapSend]
	}
	return "tap?"
}

// TapEvent is one observed network occurrence: the wire-level
// visibility needed to assess message routing (paper §7), and the
// network's only record of it — counters and net.* journal lines are
// derived from the event (see emit).
type TapEvent struct {
	At      sim.Time
	Kind    TapKind
	Host    string // where it was observed: the sender for sends, the receiver for deliveries
	From    Addr
	To      Addr
	Size    int
	Circuit bool
	Note    string        // why a message was dropped; the detail of a topology fault
	Ctx     trace.Context // the causal trace the message travels under, if any
}

// as returns ev observed as kind at host, with a drop reason.
func (ev TapEvent) as(kind TapKind, host, note string) TapEvent {
	ev.Kind, ev.Host, ev.Note = kind, host, note
	return ev
}

// journalKinds maps each event kind to the journal kind recording it.
var journalKinds = [...]journal.Kind{
	TapSend:        journal.NetSend,
	TapDeliver:     journal.NetDeliver,
	TapDrop:        journal.NetDrop,
	TapConnOpen:    journal.NetCircuitOpen,
	TapConnBreak:   journal.NetCircuitBreak,
	tapConnClose:   journal.NetCircuitClose,
	tapHostCrash:   journal.NetHostCrash,
	tapHostRestart: journal.NetHostRestart,
	tapPartition:   journal.NetPartition,
	tapHeal:        journal.NetHeal,
	tapFlapDown:    journal.NetFlapDown,
	tapFlapUp:      journal.NetFlapUp,
}

var byteCounters = [2]string{"simnet.datagram.bytes", "simnet.circuit.bytes"}

// counterHandles are the network's own counters (and histogram), each
// resolved on first fire.
type counterHandles struct {
	bytes                  [2]*metrics.Counter
	hopCrossings, hopBytes *metrics.Counter
	transit                *metrics.Histogram
}

// SetTap installs a network observer; nil removes it. The tap sees
// datagram and circuit traffic, drops, circuit openings and breaks.
func (n *Network) SetTap(fn func(TapEvent)) { n.tap = fn }

// emit is where the network observes: every fact it records is one
// TapEvent handed here once. The recorder is stated the fact (the
// paired counter and the net.* journal line on the observing host);
// what stays here is the network's own — a send's byte and per-hop load
// counters, the injected-loss count, and the tap callback.
//
//ppmlint:hotpath pin=TestEmitZeroAllocs
func (n *Network) emit(ev TapEvent) {
	if reg := n.rec.Metrics(); reg != nil {
		switch {
		case ev.Kind == TapSend:
			// <transport>.bytes counts the message once; hop.crossings /
			// hop.bytes charge it once per physical segment traversed (a
			// 2-hop datagram loads two Ethernets).
			tr := 0
			if ev.Circuit {
				tr = 1
			}
			reg.Handle(&n.counters.bytes[tr], byteCounters[tr]).Add(uint64(ev.Size))
			if hops, ok := n.Hops(ev.From.Host, ev.To.Host); ok && hops > 0 {
				reg.Handle(&n.counters.hopCrossings, "simnet.hop.crossings").Add(uint64(hops))
				reg.Handle(&n.counters.hopBytes, "simnet.hop.bytes").Add(uint64(hops * ev.Size))
			}
		case ev.Kind == TapDrop && ev.Note == "injected":
			reg.Counter("simnet.injected.losses").Inc()
		}
	}
	// Kinds up to tapConnClose describe a message or a circuit; the
	// topology faults after it carry their whole detail in Note.
	detail := journal.Text(ev.Note)
	if ev.Kind <= tapConnClose {
		detail = journal.NetMessage(ev.Circuit, ev.From.Host, ev.From.Port, ev.To.Host, ev.To.Port, ev.Size, ev.Note)
	}
	n.rec.Record(journalKinds[ev.Kind], ev.Host, ev.Ctx, detail)
	if n.tap != nil && ev.Kind <= TapConnBreak {
		ev.At = n.sched.Now()
		n.tap(ev)
	}
}

// TraceCollector accumulates tap events up to a bound.
type TraceCollector struct {
	Events  []TapEvent
	Dropped int // events beyond the bound
	limit   int
}

// Trace installs a bounded collector as the network tap and returns it
// (limit 0 means 4096 events).
func (n *Network) Trace(limit int) *TraceCollector {
	if limit <= 0 {
		limit = 4096
	}
	tc := &TraceCollector{limit: limit}
	n.SetTap(tc.add)
	return tc
}

func (tc *TraceCollector) add(ev TapEvent) {
	if len(tc.Events) >= tc.limit {
		tc.Dropped++
		return
	}
	tc.Events = append(tc.Events, ev)
}

// flowKey aggregates by host pair.
type flowKey struct{ from, to string }

// FlowStat summarizes one directed host-pair flow.
type FlowStat struct {
	From, To string
	Msgs     int
	Bytes    int
	Drops    int
}

// Flows reduces the trace to per-host-pair statistics, sorted by
// descending byte volume.
func (tc *TraceCollector) Flows() []FlowStat {
	agg := map[flowKey]*FlowStat{}
	for _, ev := range tc.Events {
		if ev.Kind != TapSend && ev.Kind != TapDrop {
			continue
		}
		k := flowKey{ev.From.Host, ev.To.Host}
		st, ok := agg[k]
		if !ok {
			st = &FlowStat{From: k.from, To: k.to}
			agg[k] = st
		}
		if ev.Kind == TapDrop {
			st.Drops++
			continue
		}
		st.Msgs++
		st.Bytes += ev.Size
	}
	out := make([]FlowStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Format renders the flow summary.
func (tc *TraceCollector) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %8s %10s %6s\n", "from", "to", "msgs", "bytes", "drops")
	for _, f := range tc.Flows() {
		fmt.Fprintf(&b, "%-10s %-10s %8d %10d %6d\n", f.From, f.To, f.Msgs, f.Bytes, f.Drops)
	}
	if tc.Dropped > 0 {
		fmt.Fprintf(&b, "(trace truncated: %d events beyond the %d-event bound)\n",
			tc.Dropped, tc.limit)
	}
	return b.String()
}
