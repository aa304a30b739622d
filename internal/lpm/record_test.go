package lpm

import (
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The records a sibling exchange rides (DESIGN.md §10 "A message's hops
// are recycled records"): what they cost, and that none is reused while
// something scheduled still holds it.

// recordWorld is three warm LPMs of one user: vax1's, with circuits to
// vax2 and vax3.
func recordWorld(t *testing.T) (*world, *LPM) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2", "vax3"})
	installJournal(w)
	installMetrics(w)
	u := w.user("felipe", "vax1", "vax2", "vax3")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "warm", proc.GPID{})
	w.create(l, "vax3", "warm", proc.GPID{})
	w.run(time.Second)
	return w, l
}

// framesSent counts the sibling frames l has put on the wire (requests
// and replies are accounted as IPC when they go out).
func framesSent(w *world, l *LPM) int64 {
	p, err := w.kerns[l.Host()].Lookup(l.pid)
	if err != nil {
		w.t.Fatal(err)
	}
	return p.Rusage.MsgsSent
}

// TestRequestRecordNotReusedWhileQueued: a request retired while its
// transmit still waits in the CPU queue — by its timeout, or by its
// circuit closing — gives its record back, and a second request issued
// meanwhile may ride it. The first transmit must then send nothing:
// exactly one frame goes out, the second request's, and the first
// request's callback fires once, with its error.
func TestRequestRecordNotReusedWhileQueued(t *testing.T) {
	for _, retire := range []string{"timeout", "circuit close"} {
		t.Run(retire, func(t *testing.T) {
			w, l := recordWorld(t)
			body := wire.Encode(&wire.Ping{FromHost: "vax1", User: "felipe"})
			w.kerns["vax1"].ExecCPU(time.Second, func() {}) // the transmits below queue behind this

			var firstErrs []error
			if retire == "timeout" {
				l.cfg.RequestTimeout = 50 * time.Millisecond
			}
			l.sendRequest(trace.Context{}, l.peers["vax2"].sb, wire.MsgPing, body, 0,
				func(_ wire.Envelope, err error) { firstErrs = append(firstErrs, err) })
			if retire == "timeout" {
				w.run(100 * time.Millisecond)
				l.cfg.RequestTimeout = 10 * time.Second
			} else {
				l.peers["vax2"].sb.conn.Close()
			}
			if len(firstErrs) != 1 {
				t.Fatalf("first request not retired before its transmit ran: %d outcomes", len(firstErrs))
			}

			sent := framesSent(w, l)
			var second wire.Envelope
			var secondErr error
			answered := false
			l.sendRequest(trace.Context{}, l.peers["vax3"].sb, wire.MsgPing, body, 0,
				func(env wire.Envelope, err error) { second, secondErr, answered = env, err, true })
			id := l.reqSeq
			w.until(func() bool { return answered })
			w.run(time.Second)

			if secondErr != nil || second.ReqID != id {
				t.Fatalf("second request: reply to %d, err %v; want a reply to %d", second.ReqID, secondErr, id)
			}
			if n := framesSent(w, l) - sent; n != 1 {
				t.Errorf("%d frames went out, want 1 (the second request's)", n)
			}
			want := ErrTimeout
			if retire == "circuit close" {
				want = ErrNoSibling
			}
			if len(firstErrs) != 1 || !errors.Is(firstErrs[0], want) {
				t.Errorf("first request's outcomes %v, want one %v", firstErrs, want)
			}
		})
	}
}

// TestInboundRecordDroppedWithCrashedBoot: a message whose endpoint CPU
// slot is queued on a boot that crashes is never dispatched — not when
// the host comes back, not when the dead boot's slot comes due — and
// the next message is dispatched exactly once.
func TestInboundRecordDroppedWithCrashedBoot(t *testing.T) {
	w, l := recordWorld(t)
	l.cfg.RequestTimeout = 5 * time.Second
	body := wire.Encode(&wire.Ping{FromHost: "vax1", User: "felipe"})
	served := func() uint64 { return w.counter("lpm.requests_served") }
	var errs []error
	ping := func() {
		l.sendRequest(trace.Context{}, l.peers["vax2"].sb, wire.MsgPing, body, 0,
			func(_ wire.Envelope, err error) { errs = append(errs, err) })
	}

	k2 := w.kerns["vax2"]
	k2.ExecCPU(time.Second, func() {}) // the ping's dispatch queues behind this
	before := served()
	ping()
	w.run(200 * time.Millisecond) // delivered: its dispatch sits in vax2's CPU queue
	k2.Crash()
	k2.Restart()
	w.until(func() bool { return len(errs) == 1 })
	if !errors.Is(errs[0], ErrTimeout) {
		t.Fatalf("ping queued on the crashed boot: err %v, want a timeout", errs[0])
	}
	if n := served() - before; n != 0 {
		t.Fatalf("the crashed boot's message was dispatched %d times", n)
	}
	ping()
	w.until(func() bool { return len(errs) == 2 })
	w.run(10 * time.Second) // past every slot the dead boot had queued
	if errs[1] != nil {
		t.Fatalf("ping after the restart: %v", errs[1])
	}
	if n := served() - before; n != 1 {
		t.Fatalf("after the restart, %d dispatches for one ping", n)
	}
}

// TestArrivalBufferBoundedAcrossCrashedBoot: an arrival queued on a boot
// that crashes never dispatches, so its body stays in its LPM's arrival
// buffer — until the next arrival, the newest, dispatches and empties it.
// A hundred pings after the restart leave the buffer no larger than two
// arrivals queued together before the crash made it, and empty.
func TestArrivalBufferBoundedAcrossCrashedBoot(t *testing.T) {
	w, l := recordWorld(t)
	l.cfg.RequestTimeout = 5 * time.Second
	l2 := w.lpms["vax2/felipe"]
	k2 := w.kerns["vax2"]
	body := wire.Encode(&wire.Ping{FromHost: "vax1", User: "felipe"})
	var errs []error
	ping := func() {
		l.sendRequest(trace.Context{}, l.peers["vax2"].sb, wire.MsgPing, body, 0,
			func(_ wire.Envelope, err error) { errs = append(errs, err) })
	}

	k2.ExecCPU(time.Second, func() {}) // two pings queue behind this together
	ping()
	ping()
	w.until(func() bool { return len(errs) == 2 })
	bound := cap(l2.arrivals)
	if len(l2.arrivals) != 0 {
		t.Fatalf("%d bytes left in the arrival buffer after the last dispatch", len(l2.arrivals))
	}

	k2.ExecCPU(time.Second, func() {}) // the next ping's dispatch queues behind this
	ping()
	w.run(200 * time.Millisecond)
	k2.Crash()
	k2.Restart()
	w.until(func() bool { return len(errs) == 3 })
	if !errors.Is(errs[2], ErrTimeout) {
		t.Fatalf("ping queued on the crashed boot: err %v, want a timeout", errs[2])
	}
	for i := 0; i < 100; i++ {
		ping()
		w.until(func() bool { return len(errs) == 4+i })
		if errs[3+i] != nil {
			t.Fatalf("ping %d after the restart: %v", i, errs[3+i])
		}
	}
	if c := cap(l2.arrivals); c > bound {
		t.Errorf("the arrival buffer grew to %d bytes across the crash, from %d", c, bound)
	}
	if len(l2.arrivals) != 0 {
		t.Errorf("%d bytes left in the arrival buffer after the last dispatch", len(l2.arrivals))
	}
}

// TestSiblingExchangeAllocs pins a warm request/reply between two LPMs —
// journal and metrics wired, tracer off — at a constant count. The
// request, its deliveries, its dispatches and its reply each ride a
// recycled record, and each arrival's body is borrowed from its LPM's
// arrival buffer, so what is left is the codec's: the Pong's encode.
func TestSiblingExchangeAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops pooled records at random")
			}
		}
	}
	w, l := recordWorld(t)
	sb := l.peers["vax2"].sb
	body := wire.Encode(&wire.Ping{FromHost: "vax1", User: "felipe"})
	answered := 0
	cb := func(_ wire.Envelope, err error) {
		if err != nil {
			t.Fatal(err)
		}
		answered++
	}
	exchange := func() {
		want := answered + 1
		l.sendRequest(trace.Context{}, sb, wire.MsgPing, body, 0, cb)
		for answered < want && w.sched.Step() {
		}
	}
	for i := 0; i < 1000; i++ {
		exchange() // warm: the pools, the journal ring wrapped
	}
	const budget = 1
	if got := testing.AllocsPerRun(200, exchange); got > budget {
		t.Errorf("warm sibling exchange: %.1f allocs, budget %d", got, budget)
	}
}
