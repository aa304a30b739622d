package simnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/sim"
)

// threeHostChain builds A --seg1-- B --seg2-- C: A<->B one hop,
// A<->C two hops with B as the gateway.
func threeHostChain(t *testing.T) (*sim.Scheduler, *Network) {
	t.Helper()
	s := sim.NewScheduler(1)
	n := New(s, Options{})
	for _, h := range []string{"a", "b", "c"} {
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddSegment("seg1", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSegment("seg2", "b", "c"); err != nil {
		t.Fatal(err)
	}
	return s, n
}

func TestHopsChain(t *testing.T) {
	_, n := threeHostChain(t)
	cases := []struct {
		a, b string
		hops int
	}{
		{"a", "a", 0}, {"a", "b", 1}, {"b", "c", 1}, {"a", "c", 2},
	}
	for _, tc := range cases {
		got, ok := n.Hops(tc.a, tc.b)
		if !ok || got != tc.hops {
			t.Fatalf("Hops(%s,%s) = %d,%v want %d", tc.a, tc.b, got, ok, tc.hops)
		}
	}
}

func TestHopsNoPath(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s, Options{})
	_ = n.AddHost("a")
	_ = n.AddHost("island")
	_ = n.AddSegment("seg1", "a")
	if _, ok := n.Hops("a", "island"); ok {
		t.Fatal("disconnected hosts should have no route")
	}
	if n.Reachable("a", "island") {
		t.Fatal("disconnected hosts reachable")
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s, Options{})
	_ = n.AddHost("a")
	if err := n.AddHost("a"); !errors.Is(err, ErrDuplicateHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestSegmentUnknownHost(t *testing.T) {
	s := sim.NewScheduler(1)
	n := New(s, Options{})
	if err := n.AddSegment("seg", "ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramDelivery(t *testing.T) {
	s, n := threeHostChain(t)
	var got []byte
	var from Addr
	if err := n.HandleDatagram("b", 100, func(f Addr, p []byte) { from, got = f, p }); err != nil {
		t.Fatal(err)
	}
	n.SendDatagram(Addr{"a", 5}, Addr{"b", 100}, []byte("hi"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" || from.Host != "a" {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestDatagramDroppedNoHandler(t *testing.T) {
	s, n := threeHostChain(t)
	n.SetRecorder(journal.NewRecorder(metrics.New(nil), nil, nil))
	n.SendDatagram(Addr{"a", 5}, Addr{"b", 999}, []byte("hi"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got := n.Recorder().Metrics().Snapshot().Counter("simnet.datagram.dropped"); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

func TestDatagramLatencyScalesWithHops(t *testing.T) {
	s, n := threeHostChain(t)
	var oneHopAt, twoHopAt sim.Time
	_ = n.HandleDatagram("b", 1, func(Addr, []byte) { oneHopAt = s.Now() })
	_ = n.HandleDatagram("c", 1, func(Addr, []byte) { twoHopAt = s.Now() })
	n.SendDatagram(Addr{"a", 9}, Addr{"b", 1}, []byte("x"))
	n.SendDatagram(Addr{"a", 9}, Addr{"c", 1}, []byte("x"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if oneHopAt == 0 || twoHopAt == 0 {
		t.Fatal("messages not delivered")
	}
	if twoHopAt < oneHopAt*2-sim.Time(time.Millisecond) {
		t.Fatalf("two-hop latency %v should be ~2x one-hop %v", twoHopAt, oneHopAt)
	}
}

func dial(t *testing.T, s *sim.Scheduler, n *Network, from string, to Addr) (*Conn, *Conn) {
	t.Helper()
	var client, server *Conn
	var dialErr error
	if err := n.Listen(to.Host, to.Port, func(c *Conn) { server = c }); err != nil {
		t.Fatal(err)
	}
	n.Dial(from, to, func(c *Conn, err error) { client, dialErr = c, err })
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	if client == nil || server == nil {
		t.Fatal("handshake incomplete")
	}
	n.CloseListen(to.Host, to.Port)
	return client, server
}

func TestCircuitSendBothWays(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	var atServer, atClient string
	server.SetHandler(func(p []byte) { atServer = string(p) })
	client.SetHandler(func(p []byte) { atClient = string(p) })
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if atServer != "ping" {
		t.Fatalf("server got %q", atServer)
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if atClient != "pong" {
		t.Fatalf("client got %q", atClient)
	}
}

func TestCircuitFIFOWithMixedSizes(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"c", 2001})
	var got []int
	server.SetHandler(func(p []byte) { got = append(got, len(p)) })
	big := make([]byte, 100000) // serializes slowly
	_ = client.Send(big)
	_ = client.Send([]byte("x")) // small, would overtake without FIFO
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 100000 || got[1] != 1 {
		t.Fatalf("order = %v, want [100000 1]", got)
	}
}

func TestDialRefusedNoListener(t *testing.T) {
	s, n := threeHostChain(t)
	var dialErr error
	done := false
	n.Dial("a", Addr{"b", 4444}, func(c *Conn, err error) { dialErr, done = err, true })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !done || !errors.Is(dialErr, ErrNoListener) {
		t.Fatalf("err = %v done=%v", dialErr, done)
	}
}

func TestDialUnknownAndDownHosts(t *testing.T) {
	s, n := threeHostChain(t)
	var err1, err2 error
	n.Dial("ghost", Addr{"b", 1}, func(_ *Conn, err error) { err1 = err })
	_ = n.Crash("a")
	n.Dial("a", Addr{"b", 1}, func(_ *Conn, err error) { err2 = err })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrUnknownHost) {
		t.Fatalf("err1 = %v", err1)
	}
	if !errors.Is(err2, ErrHostDown) {
		t.Fatalf("err2 = %v", err2)
	}
}

func TestDialUnreachableTimesOut(t *testing.T) {
	s, n := threeHostChain(t)
	_ = n.Crash("c")
	var dialErr error
	n.Dial("a", Addr{"c", 1}, func(_ *Conn, err error) { dialErr = err })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, ErrUnreachable) {
		t.Fatalf("err = %v", dialErr)
	}
	// Timeout should take the break-detect delay, not be instant.
	if s.Now() < sim.Time(time.Second) {
		t.Fatalf("timed out too fast: %v", s.Now())
	}
}

// TestUnreachableReadsAsItsOldWrap: both legs' unreachable error — the
// peer cut off when the dial starts, and while its SYN is in flight —
// reads byte for byte as the fmt.Errorf it replaced, and errors.Is
// answers as that wrap did.
func TestUnreachableReadsAsItsOldWrap(t *testing.T) {
	old := fmt.Errorf("%w: %s -> %s", ErrUnreachable, "a", "c")
	for _, leg := range []string{"at dial", "in flight"} {
		s, n := threeHostChain(t)
		if leg == "at dial" {
			if err := n.Partition([]string{"a", "b"}, []string{"c"}); err != nil {
				t.Fatal(err)
			}
		}
		var got error
		n.Dial("a", Addr{"c", 1}, func(_ *Conn, err error) { got = err })
		if leg == "in flight" {
			_ = n.Crash("c")
		}
		if err := s.RunUntilIdle(100); err != nil {
			t.Fatal(err)
		}
		if got == nil || got.Error() != old.Error() {
			t.Fatalf("%s: dial failed with %v, want %q", leg, got, old)
		}
		for _, target := range []error{ErrUnreachable, ErrHostDown, ErrConnClosed, ErrNoListener} {
			if errors.Is(got, target) != errors.Is(old, target) {
				t.Errorf("%s: errors.Is(%v, %v) = %v, its old wrap %v", leg, got, target, !errors.Is(old, target), errors.Is(old, target))
			}
		}
	}
}

func TestCleanCloseNotifiesPeer(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	var closedErr error
	closed := false
	server.SetCloseHandler(func(err error) { closedErr, closed = err, true })
	client.Close()
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !closed || closedErr != nil {
		t.Fatalf("closed=%v err=%v, want clean close", closed, closedErr)
	}
	if client.Open() || server.Open() {
		t.Fatal("both ends should be closed")
	}
	if err := client.Send([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send on closed conn: %v", err)
	}
}

func TestCrashBreaksCircuitRemoteNoticesLater(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	_ = server // stays on b
	var gotErr error
	client.SetCloseHandler(func(err error) { gotErr = err })
	crashAt := s.Now()
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, ErrPeerLost) {
		t.Fatalf("close err = %v, want ErrPeerLost", gotErr)
	}
	if s.Now().Sub(crashAt) < time.Second {
		t.Fatal("break detection should not be instantaneous")
	}
}

func TestCrashedHostCallbacksNeverRun(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	ran := false
	server.SetCloseHandler(func(error) { ran = true })
	server.SetHandler(func([]byte) { ran = true })
	_ = n.Crash("b")
	_ = client.Send([]byte("into the void"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("callbacks on a crashed host must not run")
	}
}

func TestPartitionBreaksCrossCircuits(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"c", 2001})
	var cErr, sErr error
	client.SetCloseHandler(func(err error) { cErr = err })
	server.SetCloseHandler(func(err error) { sErr = err })
	if err := n.Partition([]string{"a"}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(cErr, ErrPeerLost) || !errors.Is(sErr, ErrPeerLost) {
		t.Fatalf("cErr=%v sErr=%v", cErr, sErr)
	}
	if n.Reachable("a", "c") {
		t.Fatal("partitioned hosts reachable")
	}
	n.Heal()
	if !n.Reachable("a", "c") {
		t.Fatal("healed hosts unreachable")
	}
}

func TestPartitionSameGroupStillWorks(t *testing.T) {
	s, n := threeHostChain(t)
	if err := n.Partition([]string{"a"}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if !n.Reachable("b", "c") {
		t.Fatal("b and c share a partition group")
	}
	var got string
	_ = n.HandleDatagram("c", 7, func(_ Addr, p []byte) { got = string(p) })
	n.SendDatagram(Addr{"b", 1}, Addr{"c", 7}, []byte("ok"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got != "ok" {
		t.Fatal("datagram within a partition group dropped")
	}
}

// A partition naming an unknown host is refused whole: no group moves,
// so no pair is cut off without the net.partition record, the gauge
// update and the circuit breaks that announce a cut.
func TestPartitionUnknownHostChangesNothing(t *testing.T) {
	s, n := threeHostChain(t)
	jr := journal.New(func() time.Duration { return s.Now().Duration() })
	n.SetRecorder(journal.NewRecorder(nil, nil, jr))
	if err := n.Partition([]string{"a"}, []string{"nosuch"}); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("Partition with an unknown host = %v, want ErrUnknownHost", err)
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
		if !n.Reachable(pair[0], pair[1]) {
			t.Errorf("%s cannot reach %s after a refused partition", pair[0], pair[1])
		}
	}
	if jr.Len() != 0 {
		t.Errorf("a refused partition journaled:\n%s", jr.Render())
	}
}

func TestSendAcrossPartitionEventuallyBreaksCircuit(t *testing.T) {
	s, n := threeHostChain(t)
	client, server := dial(t, s, n, "a", Addr{"b", 2001})
	// Partition after establishment but check send-triggered breakage:
	// Heal first so Partition's own sweep is not the trigger.
	_ = n.Partition([]string{"a"}, []string{"b"})
	// The sweep already breaks it; make a fresh pair to test send path.
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	n.Heal()
	client2, server2 := dial(t, s, n, "a", Addr{"b", 2002})
	_ = client
	_ = server
	var broke bool
	client2.SetCloseHandler(func(err error) { broke = errors.Is(err, ErrPeerLost) })
	_ = server2
	// Emulate a partition that the sweep somehow missed by healing the
	// group bookkeeping trick: crash c (irrelevant) then partition.
	_ = n.Partition([]string{"a"}, []string{"b"})
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if !broke {
		t.Fatal("circuit across partition did not break")
	}
}

func TestRestartAfterCrash(t *testing.T) {
	s, n := threeHostChain(t)
	_ = n.Crash("b")
	if n.Up("b") {
		t.Fatal("b should be down")
	}
	if err := n.Restart("b"); err != nil {
		t.Fatal(err)
	}
	if !n.Up("b") {
		t.Fatal("b should be up")
	}
	// Listeners are gone after restart: dialing is refused.
	var dialErr error
	n.Dial("a", Addr{"b", 2001}, func(_ *Conn, err error) { dialErr = err })
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, ErrNoListener) {
		t.Fatalf("err = %v, want refused", dialErr)
	}
}

func TestListenPortConflict(t *testing.T) {
	_, n := threeHostChain(t)
	if err := n.Listen("a", 1, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen("a", 1, func(*Conn) {}); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	s, n := threeHostChain(t)
	n.SetRecorder(journal.NewRecorder(metrics.New(nil), nil, nil))
	client, _ := dial(t, s, n, "a", Addr{"b", 2001})
	_ = client.Send([]byte("12345"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	st := n.Recorder().Metrics().Snapshot()
	if st.Counter("simnet.circuit.opened") != 1 || st.Counter("simnet.dial.attempts") != 1 {
		t.Fatalf("conn counters wrong:\n%s", st.Report())
	}
	if st.Counter("simnet.circuit.sent") != 1 || st.Counter("simnet.circuit.bytes") != 5 {
		t.Fatalf("msg counters wrong:\n%s", st.Report())
	}
	// A counter materialises on its first increment: nothing was
	// dropped, so no drop counter exists.
	if strings.Contains(st.Report(), "dropped") {
		t.Fatalf("a counter that never fired is reported:\n%s", st.Report())
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Host: "vax1", Port: 2001}
	if a.String() != "vax1:2001" {
		t.Fatalf("String = %q", a.String())
	}
	if !(Addr{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	s, n := threeHostChain(t)
	var got string
	_ = n.HandleDatagram("a", 7, func(_ Addr, p []byte) { got = string(p) })
	n.SendDatagram(Addr{"a", 1}, Addr{"a", 7}, []byte("self"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got != "self" {
		t.Fatal("loopback datagram lost")
	}
	if s.Now() > sim.Time(time.Millisecond) {
		t.Fatalf("loopback should be fast, took %v", s.Now())
	}
}

// TestPooledDeliveryBuffersInFlight pins the delivery-buffer pool: with
// several messages in flight at once, each handler sees its own
// payload intact — buffers are only recycled after the handler returns,
// never while another delivery still holds one.
func TestPooledDeliveryBuffersInFlight(t *testing.T) {
	s, n := threeHostChain(t)
	var got []string
	if err := n.HandleDatagram("c", 100, func(_ Addr, p []byte) {
		got = append(got, string(p))
	}); err != nil {
		t.Fatal(err)
	}
	// Same destination, two hops, equal sizes (so transit delays tie
	// and delivery order is send order): all four are in flight at once.
	for _, msg := range []string{"first-pay", "secondpay", "third-pay", "fourthpay"} {
		n.SendDatagram(Addr{"a", 5}, Addr{"c", 100}, []byte(msg))
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	want := []string{"first-pay", "secondpay", "third-pay", "fourthpay"}
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPooledBufferReusedAcrossDeliveries proves the pool actually
// recycles: after a delivery completes, the next send reuses the
// returned buffer (same backing array) rather than allocating.
func TestPooledBufferReusedAcrossDeliveries(t *testing.T) {
	s, n := threeHostChain(t)
	var bufs []*byte
	if err := n.HandleDatagram("b", 100, func(_ Addr, p []byte) {
		bufs = append(bufs, &p[:1][0])
	}); err != nil {
		t.Fatal(err)
	}
	n.SendDatagram(Addr{"a", 5}, Addr{"b", 100}, []byte("one"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	n.SendDatagram(Addr{"a", 5}, Addr{"b", 100}, []byte("two"))
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(bufs) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(bufs))
	}
	if bufs[0] != bufs[1] {
		t.Fatal("second delivery did not reuse the pooled buffer")
	}
}

// TestCircuitPooledBuffers runs mixed-size circuit traffic both ways
// and checks content integrity under buffer recycling.
func TestCircuitPooledBuffers(t *testing.T) {
	s, n := threeHostChain(t)
	var server *Conn
	if err := n.Listen("b", 9, func(c *Conn) {
		server = c
		c.SetHandler(func(p []byte) {
			// Echo a copy back; the payload itself dies with this call.
			reply := append([]byte("echo:"), p...)
			if err := c.Send(reply); err != nil {
				t.Errorf("echo send: %v", err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	var echoes []string
	n.Dial("a", Addr{"b", 9}, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.SetHandler(func(p []byte) { echoes = append(echoes, string(p)) })
		for _, msg := range []string{"alpha", "bb", "a-much-longer-payload"} {
			if err := c.Send([]byte(msg)); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	})
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	_ = server
	want := []string{"echo:alpha", "echo:bb", "echo:a-much-longer-payload"}
	if len(echoes) != len(want) {
		t.Fatalf("echoes = %v, want %v", echoes, want)
	}
	for i := range want {
		if echoes[i] != want[i] {
			t.Fatalf("echo %d = %q, want %q", i, echoes[i], want[i])
		}
	}
}
