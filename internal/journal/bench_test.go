package journal_test

import (
	"testing"
	"time"

	"ppm/internal/journal"
)

// BenchmarkJournalAppend prices one append to a saturated ring under
// the record mix of the control workload: each remote control's
// wire.encode, net.send, net.deliver and wire.decode of the request and
// of the reply across the line a–gw–c, the served op's lpm.op.exec and
// lpm.control, and the kernel.event it raises. ns/op is per record.
func BenchmarkJournalAppend(b *testing.B) {
	type record struct {
		kind        journal.Kind
		host        string
		d           journal.Detail
		trace, span uint64
	}
	var mix []record
	hosts := []string{"a", "gw", "c"}
	for i, from := range hosts {
		to := hosts[(i+2)%3]
		for _, msg := range []struct {
			from, to, typ string
			size          int
		}{{from, to, "Control", 61}, {to, from, "ControlResp", 34}} {
			ctx := uint64(len(mix) + 1)
			mix = append(mix,
				record{journal.WireEncode, msg.from, journal.WireFrame(msg.typ, msg.size), ctx, ctx},
				record{journal.NetSend, msg.from, journal.NetMessage(true, msg.from, 701, msg.to, 700, msg.size, ""), ctx, ctx},
				record{journal.NetDeliver, msg.to, journal.NetMessage(true, msg.from, 701, msg.to, 700, msg.size, ""), ctx, ctx},
				record{journal.WireDecode, msg.to, journal.WireFrame(msg.typ, msg.size), ctx, ctx})
		}
		mix = append(mix,
			record{journal.LPMOpExec, to, journal.Op("u", from, 30, uint64(i+7), "Control"), 1, 2},
			record{journal.LPMControl, to, journal.Control("stop", int32(40+i), true), 1, 2},
			record{journal.KernelEvent, to, journal.EventMessage("stop", to, int32(40+i)), 1, 2})
	}
	j := journal.New(func() time.Duration { return time.Second })
	for i := 0; i < journal.DefaultCapacity; i++ {
		r := &mix[i%len(mix)]
		j.AppendDetail(r.kind, r.host, r.d, r.trace, r.span)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &mix[i%len(mix)]
		j.AppendDetail(r.kind, r.host, r.d, r.trace, r.span)
	}
}
