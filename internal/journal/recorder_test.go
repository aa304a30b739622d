package journal

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/trace"
)

// stateFacts states one fact of each shape a site hands Record — a
// message on a "*" row, one on a row without a counter, a kernel event,
// a typed lpm fact, a fact with no detail — and bumps one of the callers' own handles.
func stateFacts(r *Recorder) {
	ctx := trace.Context{Trace: 7, Span: 9}
	r.Record(NetSend, "a", ctx, NetMessage(true, "a", 7, "b", 512, 14, ""))
	r.Record(NetDeliver, "b", ctx, NetMessage(true, "a", 7, "b", 512, 14, ""))
	r.Record(KernelEvent, "a", ctx, EventMessage(proc.EvStop.String(), "a", 6))
	r.Record(LPMOpReplay, "a", ctx, Op("alice", "a", 30, 7, "Control"))
	r.Record(NetHeal, "", trace.Context{}, Detail{})
	r.Handle(3, "wire.msgs.Control").Inc()
}

// TestRecordZeroAllocs pins Record at zero allocations in every wiring:
// no recorder at all, a recorder holding nothing, only a registry, only
// a journal — each of which must also be inert where it has nothing to
// write to — and both, warm.
func TestRecordZeroAllocs(t *testing.T) {
	reg, full := metrics.New(nil), metrics.New(nil)
	j, _ := testJournal(64)
	jfull, _ := testJournal(64)
	for _, row := range []struct {
		name string
		rec  *Recorder
	}{
		{"nil recorder", nil},
		{"empty recorder", NewRecorder(nil, nil, nil)},
		{"registry only", NewRecorder(reg, nil, nil)},
		{"journal only", NewRecorder(nil, nil, j)},
	} {
		if allocs := testing.AllocsPerRun(100, func() { stateFacts(row.rec) }); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", row.name, allocs)
		}
		if row.rec.Metrics() != nil && row.rec.Metrics() != reg || row.rec.Journal() != nil && row.rec.Journal() != j || row.rec.Tracer() != nil {
			t.Errorf("%s: the getters return what it was not given", row.name)
		}
	}
	if got := reg.Snapshot().Counter("lpm.dedup.replays"); got != 101 {
		t.Errorf("registry only: lpm.dedup.replays = %d over 101 replays", got)
	}
	if j.Dropped()+uint64(j.Len()) != 101*5 {
		t.Errorf("journal only: %d records over 101 runs of 5 facts", j.Dropped()+uint64(j.Len()))
	}
	if got := j.Records()[j.Len()-2]; got.Detail != "user=alice op=a#30#7 type=Control" || got.Trace != 7 || got.Span != 9 {
		t.Errorf("journal only: record %v", got)
	}

	rec := NewRecorder(full, nil, jfull)
	for i := 0; i < 64; i++ {
		stateFacts(rec)
	}
	if allocs := testing.AllocsPerRun(200, func() { stateFacts(rec) }); allocs != 0 {
		t.Errorf("registry and journal: %v allocs per run, want 0", allocs)
	}
}

// TestRecordFiresThePairedCounter walks kindTable: stating a fact of a
// kind moves exactly the counter its row names — per first detail token
// on the "*" rows, none for a row without one — and appends exactly one
// record of that kind.
func TestRecordFiresThePairedCounter(t *testing.T) {
	tokens := map[Kind][2]Detail{
		NetSend:     {NetMessage(false, "a", 1, "b", 2, 3, ""), NetMessage(true, "a", 1, "b", 2, 3, "")},
		NetDrop:     {NetMessage(false, "a", 1, "b", 2, 3, "lost"), NetMessage(true, "a", 1, "b", 2, 3, "severed")},
		KernelEvent: {EventMessage("stop", "a", 6), EventMessage("Event(99)", "a", 6)},
	}
	stars := 0
	for _, k := range Kinds() {
		details := []Detail{{layout: slotLayout(k), s: [3]string{"user=alice peer=b"}}}
		if strings.Contains(kindTable[k].counter, "*") {
			stars++
			pair, ok := tokens[k]
			if !ok {
				t.Fatalf("%v is counted per token and this test has no tokens for it", k)
			}
			details = pair[:]
		}
		reg := metrics.New(nil)
		j, now := testJournal(8)
		rec := NewRecorder(reg, nil, j)
		for i, d := range details {
			*now = time.Duration(i+1) * time.Second
			rec.Record(k, "a", trace.Context{Trace: 1, Span: 2}, d)
			rec.Record(k, "a", trace.Context{Trace: 1, Span: 2}, d)
		}
		want := map[string]uint64{}
		for _, d := range details {
			if name := CounterName(k, d.firstToken()); name != "" {
				want[name] = 2
			}
		}
		var got int
		for _, f := range reg.Snapshot().Families {
			for _, cp := range f.Counters {
				got++
				if cp.Value != want[cp.Name] {
					t.Errorf("%v: counter %s = %d, want %d", k, cp.Name, cp.Value, want[cp.Name])
				}
			}
		}
		if got != len(want) {
			t.Errorf("%v: %d counters fired, want %d (%v)", k, got, len(want), want)
		}
		recs := j.Records()
		if len(recs) != 2*len(details) {
			t.Fatalf("%v: %d records for %d facts", k, len(recs), 2*len(details))
		}
		for i, r := range recs {
			d := details[i/2]
			d.kind = k
			if r.Kind != k || r.Host != "a" || r.Trace != 1 || r.Span != 2 || r.Detail != d.text() {
				t.Errorf("%v: record %v", k, r)
			}
		}
	}
	if stars != 3 {
		t.Errorf("%d rows are counted per token, want 3", stars)
	}
}

// TestHandleSlots: a slot resolves its counter on first fire and is that
// counter from then on; an index past the table still counts, by name.
func TestHandleSlots(t *testing.T) {
	reg := metrics.New(nil)
	rec := NewRecorder(reg, nil, nil)
	rec.Handle(5, "wire.bytes.Ping").Add(14)
	rec.Handle(5, "wire.bytes.Ping").Add(14)
	rec.Handle(1<<20, "wire.msgs.MsgType(999)").Inc()
	rec.Handle(1<<20, "wire.msgs.MsgType(999)").Inc()
	snap := reg.Snapshot()
	if got := snap.Counter("wire.bytes.Ping"); got != 28 {
		t.Errorf("wire.bytes.Ping = %d, want 28", got)
	}
	if got := snap.Counter("wire.msgs.MsgType(999)"); got != 2 {
		t.Errorf("wire.msgs.MsgType(999) = %d, want 2", got)
	}
	if rec.Handle(4, "wire.msgs.Ping") == rec.Handle(5, "wire.bytes.Ping") {
		t.Error("two slots share a counter")
	}
}
