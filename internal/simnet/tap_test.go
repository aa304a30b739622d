package simnet

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
)

func TestTapSeesDatagramLifecycle(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(0)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("hello"))
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 99}, []byte("drop me")) // no handler
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	kinds := map[TapKind]int{}
	for _, ev := range tc.Events {
		kinds[ev.Kind]++
	}
	if kinds[TapSend] != 2 || kinds[TapDeliver] != 1 || kinds[TapDrop] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestTapSeesCircuitTraffic(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(0)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	server.SetHandler(func([]byte) {})
	_ = client.Send([]byte("0123456789"))
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	var opened, sent, delivered bool
	for _, ev := range tc.Events {
		switch ev.Kind {
		case TapConnOpen:
			opened = true
		case TapSend:
			if ev.Circuit && ev.Size == 10 {
				sent = true
			}
		case TapDeliver:
			if ev.Circuit && ev.Size == 10 {
				delivered = true
			}
		}
	}
	if !opened || !sent || !delivered {
		t.Fatalf("opened=%v sent=%v delivered=%v", opened, sent, delivered)
	}
}

func TestTapSeesBreaks(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(0)
	_, _ = dial(t, s, n, "a", Addr{"b", 2001})
	_ = n.Crash("b")
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tc.Events {
		if ev.Kind == TapConnBreak {
			found = true
		}
	}
	if !found {
		t.Fatal("no break event")
	}
}

func TestFlowsAggregation(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(0)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	_ = n.HandleDatagram("c", 1, func(Addr, []byte) {})
	for i := 0; i < 3; i++ {
		n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, make([]byte, 100))
	}
	n.SendDatagram(Addr{"a", 9}, Addr{"c", 1}, make([]byte, 50))
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	flows := tc.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %+v", flows)
	}
	// Sorted by bytes: a->b (300) before a->c (50).
	if flows[0].To != "b" || flows[0].Msgs != 3 || flows[0].Bytes != 300 {
		t.Fatalf("top flow = %+v", flows[0])
	}
	out := tc.Format()
	if !strings.Contains(out, "a") || !strings.Contains(out, "300") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestTraceBounded(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(3)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	for i := 0; i < 10; i++ {
		n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("x"))
	}
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(tc.Events) != 3 || tc.Dropped == 0 {
		t.Fatalf("events=%d dropped=%d", len(tc.Events), tc.Dropped)
	}
	if !strings.Contains(tc.Format(), "truncated") {
		t.Fatal("truncation not reported")
	}
}

func TestTapRemoval(t *testing.T) {
	s, n := threeHostChain(t)
	tc := n.Trace(0)
	n.SetTap(nil)
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) {})
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("x"))
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(tc.Events) != 0 {
		t.Fatal("removed tap still collecting")
	}
}

func TestTapKindStrings(t *testing.T) {
	want := map[TapKind]string{
		TapSend: "send", TapDeliver: "deliver", TapDrop: "drop",
		TapConnOpen: "open", TapConnBreak: "break", TapKind(9): "tap?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d: %q", k, k.String())
		}
	}
}

// TestEveryEventFeedsCounterJournalAndTap: one emit per fact, three
// views of it. Over a run with deliveries, every kind of drop, a
// circuit opened, closed and broken, the tap's per-kind event counts
// must equal the journal's record counts for the kinds the tap sees,
// and each paired counter must equal the journal — including the
// send-time drop of a message on a severed circuit, which used to be
// counted and journaled but never tapped.
func TestEveryEventFeedsCounterJournalAndTap(t *testing.T) {
	s, n := threeHostChain(t)
	reg := metrics.New(nil)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	n.SetRecorder(journal.NewRecorder(reg, nil, jr))
	tc := n.Trace(0)

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
	tapped := map[TapKind]uint64{}
	for _, ev := range tc.Events {
		tapped[ev.Kind]++
	}
	for k := TapSend; k <= TapConnBreak; k++ {
		if tapped[k] == 0 || tapped[k] != records[journalKinds[k]] {
			t.Errorf("tap saw %d %v events, journal recorded %d %s", tapped[k], k, records[journalKinds[k]], journalKinds[k])
		}
	}
	snap := reg.Snapshot()
	for _, jk := range journalKinds {
		datagram, circuit := journal.CounterName(jk, "datagram"), journal.CounterName(jk, "circuit")
		if jk == 0 || datagram == "" {
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
	if records[journal.NetCircuitClose] == 0 || records[journal.NetPartition] != 1 || records[journal.NetHeal] != 1 {
		t.Errorf("journal-only kinds missing:\n%s", jr.Render())
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
	ev := TapEvent{From: Addr{"a", 9}, To: Addr{"c", 65535}, Size: 10000, Circuit: true}
	events := []TapEvent{ev.as(TapSend, "a", ""), ev.as(TapDeliver, "c", ""), ev.as(TapDrop, "c", "lost")}
	fire := func() {
		for _, ev := range events {
			n.emit(ev)
		}
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
