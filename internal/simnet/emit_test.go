package simnet

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/sim"
	"ppm/internal/trace"
)

// The network's tap is its net.* journal records: emit states every
// event once, and what a tap sees is read back from the journal — per
// record, or reduced to per-host-pair flows by journal.Flows.

// journaled is threeHostChain with a journal wired in.
func journaled(t *testing.T) (*sim.Scheduler, *Network, *journal.Journal) {
	t.Helper()
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	n.SetRecorder(journal.NewRecorder(nil, nil, jr))
	return s, n, jr
}

func kindCounts(jr *journal.Journal) map[journal.Kind]int {
	counts := map[journal.Kind]int{}
	for _, r := range jr.Records() {
		counts[r.Kind]++
	}
	return counts
}

func TestTapSeesDatagramLifecycle(t *testing.T) {
	s, n, jr := journaled(t)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("hello"))
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 99}, []byte("drop me")) // no handler
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	kinds := kindCounts(jr)
	if kinds[journal.NetSend] != 2 || kinds[journal.NetDeliver] != 1 || kinds[journal.NetDrop] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestTapSeesCircuitTraffic(t *testing.T) {
	s, n, jr := journaled(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	server.SetHandler(func([]byte) {})
	_ = client.Send([]byte("0123456789"))
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	var opened, sent, delivered bool
	for _, r := range jr.Records() {
		tenBytes := strings.HasPrefix(r.Detail, "circuit ") && strings.HasSuffix(r.Detail, " 10B")
		switch r.Kind {
		case journal.NetCircuitOpen:
			opened = true
		case journal.NetSend:
			sent = sent || tenBytes
		case journal.NetDeliver:
			delivered = delivered || tenBytes
		}
	}
	if !opened || !sent || !delivered {
		t.Fatalf("opened=%v sent=%v delivered=%v:\n%s", opened, sent, delivered, jr.Render())
	}
}

func TestTapSeesBreaks(t *testing.T) {
	s, n, jr := journaled(t)
	_, _ = dial(t, s, n, "a", Addr{"b", 2001})
	_ = n.Crash("b")
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if kindCounts(jr)[journal.NetCircuitBreak] == 0 {
		t.Fatalf("no break record:\n%s", jr.Render())
	}
}

// Flows reduces the records after a position to per-pair traffic,
// largest first: traffic before the position is not counted, and a
// dropped message counts as sent and as a drop of its pair.
func TestFlowsAggregation(t *testing.T) {
	s, n, jr := journaled(t)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	_ = n.HandleDatagram("c", 1, func(Addr, []byte) {})
	n.SendDatagram(Addr{"c", 9}, Addr{"a", 1}, make([]byte, 500)) // no handler on a
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	from := jr.Seq()
	for i := 0; i < 3; i++ {
		n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, make([]byte, 100))
	}
	n.SendDatagram(Addr{"a", 9}, Addr{"c", 1}, make([]byte, 50))
	n.SendDatagram(Addr{"a", 9}, Addr{"c", 99}, nil) // no handler
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	flows, evicted := jr.Flows(from)
	want := []journal.Flow{
		{From: "a", To: "b", Msgs: 3, Bytes: 300},
		{From: "a", To: "c", Msgs: 2, Bytes: 50, Drops: 1},
	}
	if evicted != 0 || !slices.Equal(flows, want) {
		t.Fatalf("flows = %+v (evicted %d), want %+v", flows, evicted, want)
	}
	all, _ := jr.Flows(0)
	if len(all) != 3 || all[0] != (journal.Flow{From: "c", To: "a", Msgs: 1, Bytes: 500, Drops: 1}) {
		t.Fatalf("flows from the start = %+v", all)
	}
}

// The journal ring bounds the trace: Flows reports how many records of
// the window it evicted, and a window the ring still holds is whole.
func TestTraceBounded(t *testing.T) {
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	jr.SetCapacity(3)
	n.SetRecorder(journal.NewRecorder(nil, nil, jr))
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	for i := 0; i < 10; i++ { // a send and a deliver record each
		n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("x"))
		if err := s.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
	}
	one := []journal.Flow{{From: "a", To: "b", Msgs: 1, Bytes: 1}}
	if flows, evicted := jr.Flows(0); evicted != 17 || !slices.Equal(flows, one) {
		t.Fatalf("whole run: flows %+v, evicted %d, want %+v and 17", flows, evicted, one)
	}
	if flows, evicted := jr.Flows(jr.Seq() - 2); evicted != 0 || !slices.Equal(flows, one) {
		t.Fatalf("last two records: flows %+v, evicted %d, want %+v and 0", flows, evicted, one)
	}
}

// TestEveryEventFeedsCounterJournalAndTap: one emit per fact, three
// views of it. Over a run with deliveries, every kind of drop, a
// circuit opened, closed and broken, each paired counter must equal the
// journal's record count, and the flows (the tap's reduction) must sum
// to the journal's sends and drops — including the send-time drop of a
// message on a severed circuit.
func TestEveryEventFeedsCounterJournalAndTap(t *testing.T) {
	s, n := threeHostChain(t)
	reg := metrics.New(nil)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	n.SetRecorder(journal.NewRecorder(reg, nil, jr))

	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("delivered"))
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 99}, []byte("no handler"))
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	server.SetHandler(func([]byte) {})
	_ = client.Send([]byte("delivered"))
	other, _ := dial(t, s, n, "a", Addr{"c", 2002})
	other.Close()
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if err := n.Partition([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("unreachable"))
	_ = client.Send([]byte("severed")) // dropped at send time; breaks both ends
	n.Heal()
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}

	records := map[journal.Kind]uint64{}
	severed := false
	for _, r := range jr.Records() {
		records[r.Kind]++
		severed = severed || (r.Kind == journal.NetDrop && strings.HasSuffix(r.Detail, " severed"))
	}
	if !severed {
		t.Fatalf("scenario journaled no severed drop:\n%s", jr.Render())
	}
	for _, k := range []journal.Kind{journal.NetSend, journal.NetDeliver, journal.NetDrop,
		journal.NetCircuitOpen, journal.NetCircuitClose, journal.NetCircuitBreak} {
		if records[k] == 0 {
			t.Errorf("scenario journaled no %s", k)
		}
	}
	flows, _ := jr.Flows(0)
	var msgs, drops uint64
	for _, f := range flows {
		msgs, drops = msgs+uint64(f.Msgs), drops+uint64(f.Drops)
	}
	if msgs != records[journal.NetSend] || drops != records[journal.NetDrop] {
		t.Errorf("flows sum to %d sends and %d drops, journal recorded %d and %d",
			msgs, drops, records[journal.NetSend], records[journal.NetDrop])
	}
	snap := reg.Snapshot()
	netKinds, err := journal.ParseKinds("net")
	if err != nil {
		t.Fatal(err)
	}
	for _, jk := range netKinds {
		datagram, circuit := journal.CounterName(jk, "datagram"), journal.CounterName(jk, "circuit")
		if datagram == "" {
			continue
		}
		counted := snap.Counter(datagram)
		if circuit != datagram {
			counted += snap.Counter(circuit)
		}
		if counted != records[jk] {
			t.Errorf("%s counted %d, journal recorded %d %s", datagram, counted, records[jk], jk)
		}
	}
	if records[journal.NetPartition] != 1 || records[journal.NetHeal] != 1 {
		t.Errorf("topology records missing:\n%s", jr.Render())
	}
}

// TestEmitZeroAllocs pins emit — the recorder's Record reached through
// the network, plus the network's own byte and hop counters — at zero
// allocations per event with the registry and the journal both wired:
// counter handles instead of name lookups, values instead of text.
func TestEmitZeroAllocs(t *testing.T) {
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	jr.SetCapacity(64)
	n.SetRecorder(journal.NewRecorder(metrics.New(nil), nil, jr))
	ev := event{from: Addr{"a", 9}, to: Addr{"c", 65535}, size: 10000, circuit: true}
	fire := func() {
		n.emit(journal.NetSend, ev.as("a", ""))
		n.emit(journal.NetDeliver, ev.as("c", ""))
		n.emit(journal.NetDrop, ev.as("c", "lost"))
	}
	for i := 0; i < 64; i++ {
		fire()
	}
	if allocs := testing.AllocsPerRun(200, fire); allocs != 0 {
		t.Fatalf("emit allocates %v times per three events, want 0", allocs)
	}
	recs := jr.Records()
	if got, want := recs[len(recs)-1].Detail, "circuit a:9->c:65535 10000B lost"; got != want {
		t.Fatalf("detail %q, want %q", got, want)
	}
}

// TestDatagramOneAlloc holds a one-hop datagram — send, transit event,
// handler dispatch, pooled delivery buffer reclaim — to the one
// allocation that is its delivery closure, registry and journal wired.
func TestDatagramOneAlloc(t *testing.T) {
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	jr.SetCapacity(64)
	n.SetRecorder(journal.NewRecorder(metrics.New(nil), nil, jr))
	sent, delivered := 0, 0
	if err := n.HandleDatagram("b", 100, func(Addr, []byte) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	send := func() {
		sent++
		n.SendDatagram(Addr{"a", 5}, Addr{"b", 100}, []byte("datagram"))
		if err := s.RunUntilIdle(16); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 1 {
		t.Errorf("a one-hop datagram allocates %v times, want 1", allocs)
	}
	if delivered != sent {
		t.Errorf("delivered %d of %d datagrams", delivered, sent)
	}
}

// Journal lines are rendered when read, from values copied at the
// append: whatever happens afterwards to the things a record describes
// — the circuit closed, the host crashed, the pooled delivery buffer
// reused by later traffic — the lines already written stay as they were.
func TestJournalLinesSurviveTheirSources(t *testing.T) {
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	n.SetRecorder(journal.NewRecorder(nil, nil, jr))
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	payload := []byte("first payload")
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, payload)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	server.SetHandler(func([]byte) {})
	_ = client.Send(payload)
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	before := jr.Render()

	copy(payload, "XXXXXXXXXXXXX")
	client.Close()
	n.Crash("b")
	_ = n.Restart("b")
	for i := 0; i < 8; i++ {
		n.SendDatagram(Addr{"c", 7}, Addr{"a", 1}, []byte("later traffic reusing the buffers"))
	}
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if after := jr.Render(); !strings.HasPrefix(after, before) || after == before {
		t.Fatalf("the lines written first changed (or nothing was added):\n--- before\n%s--- after\n%s", before, after)
	}
}

// TestTracedTransitZeroAllocs: once a pair has been seen in a
// direction, a traced two-hop send records its hop spans without
// allocating: hops and span names come from the cache, span handles
// from the tracer's slab.
func TestTracedTransitZeroAllocs(t *testing.T) {
	s, n := threeHostChain(t)
	tr := trace.New(func() time.Duration { return s.Now().Duration() })
	tr.Enable()
	tr.SetMaxSpans(1 << 20)
	n.SetRecorder(journal.NewRecorder(nil, tr, nil))
	ctx := tr.StartTrace("a", "op").Context()
	send := func() { n.traceTransit(ctx, "a", "c", 100, false) }
	if allocs := testing.AllocsPerRun(5000, send); allocs != 0 {
		t.Fatalf("a traced two-hop send allocates %v times, want 0", allocs)
	}
	spans := tr.Spans()
	if hops := spans[len(spans)-2:]; hops[0].Host != "a" || hops[0].Name != "net.hop.b" ||
		hops[1].Host != "b" || hops[1].Name != "net.hop.c" || hops[1].Start != hops[0].End {
		t.Fatalf("hop spans %+v", hops)
	}
	n.traceTransit(ctx, "c", "a", 100, true)
	n.traceTransit(ctx, "b", "b", 100, true)
	spans = tr.Spans()
	for i, want := range []string{"c net.reply.b", "b net.reply.a", "b net.loopback.reply"} {
		if s := spans[len(spans)-3+i]; s.Host+" "+s.Name != want {
			t.Errorf("span %d is %s %s, want %s", i, s.Host, s.Name, want)
		}
	}
}
