package simnet

import (
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/trace"
)

// event is one network occurrence as the network states it: where it
// was observed (the sender for sends, the receiver for deliveries) and,
// for a message or a circuit, its endpoints and size.
type event struct {
	host     string
	from, to Addr
	size     int
	circuit  bool
	note     string        // why a message was dropped
	ctx      trace.Context // the causal trace the message travels under, if any
}

// as returns ev observed at host, with a drop reason.
func (ev event) as(host, note string) event {
	ev.host, ev.note = host, note
	return ev
}

var byteCounters = [2]string{"simnet.datagram.bytes", "simnet.circuit.bytes"}

// counterHandles are the network's own counters (and histogram), each
// resolved on first fire.
type counterHandles struct {
	bytes                        [2]*metrics.Counter
	hopCrossings, hopBytes       *metrics.Counter
	dialAttempts, injectedLosses *metrics.Counter
	transit                      *metrics.Histogram
}

// emit is where the network observes: every fact it records, but a
// partition or a flap (recorded where it happens), is one event of a
// net.* kind handed here once. The recorder is stated the fact (the
// paired counter and the journal record on the observing host), and
// the journal is the network's one event stream — §7's flow table is
// read back from it (journal.Flows). What stays here is the network's
// own: a send's byte and per-hop load counters and the injected-loss
// count.
//
//ppmlint:hotpath pin=TestEmitZeroAllocs
func (n *Network) emit(kind journal.Kind, ev event) {
	if reg := n.rec.Metrics(); reg != nil {
		switch {
		case kind == journal.NetSend:
			// <transport>.bytes counts the message once; hop.crossings /
			// hop.bytes charge it once per physical segment traversed (a
			// 2-hop datagram loads two Ethernets).
			tr := 0
			if ev.circuit {
				tr = 1
			}
			reg.Handle(&n.counters.bytes[tr], byteCounters[tr]).Add(uint64(ev.size))
			if hops, ok := n.Hops(ev.from.Host, ev.to.Host); ok && hops > 0 {
				reg.Handle(&n.counters.hopCrossings, "simnet.hop.crossings").Add(uint64(hops))
				reg.Handle(&n.counters.hopBytes, "simnet.hop.bytes").Add(uint64(hops * ev.size))
			}
		case kind == journal.NetDrop && ev.note == "injected":
			reg.Handle(&n.counters.injectedLosses, "simnet.injected.losses").Inc()
		}
	}
	// An event with endpoints describes a message or a circuit; a host's
	// crash or restart, or a heal, has no detail.
	var detail journal.Detail
	if ev.from.Host != "" {
		detail = journal.NetMessage(ev.circuit, ev.from.Host, ev.from.Port, ev.to.Host, ev.to.Port, ev.size, ev.note)
	}
	n.rec.Record(kind, ev.host, ev.ctx, detail)
}
