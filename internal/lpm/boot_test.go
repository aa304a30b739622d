package lpm

import (
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// TestNoTimerOutlivesItsBoot: an LPM schedules on its host's boot, so a
// crash ends every timer it armed — time-to-live, linktest, a pending
// request, a retry backoff, a hello in flight, a recovery timer, the
// redial loop's — in one stroke: the scheduler's queue drops by exactly
// those, and nothing is journaled for the host again until it restarts.
func TestNoTimerOutlivesItsBoot(t *testing.T) {
	cfg := Config{
		Linktest:       20 * time.Second,
		RequestTimeout: time.Minute,
		Retry:          RetryPolicy{BaseBackoff: time.Minute},
	}
	w := newWorld(t, cfg, []string{"vax1", "vax2", "vax3", "vax4", "vax5"})
	j := installJournal(w)
	u := w.user("felipe", "vax1", "vax2", "vax3", "vax4", "vax5")
	l := w.attach("vax1", u)
	l.Recovery().SetCCS("vax1")              // a sibling loss starts no seek
	w.create(l, "vax2", "warm", proc.GPID{}) // an established circuit: its linktest ticks
	w.attach("vax3", u)
	// A circuit that breaks: its peer enters the redial loop.
	w.ensure(l, "vax5")
	if err := w.net.Crash("vax5"); err != nil {
		t.Fatal(err)
	}
	w.kerns["vax5"].Crash()
	w.until(func() bool { return l.peers["vax5"].lost })
	if err := w.net.Crash("vax4"); err != nil {
		t.Fatal(err)
	}
	w.kerns["vax4"].Crash()
	body := wire.Encode(&wire.Ping{FromHost: "vax1", User: "felipe"})
	var outcomes int
	done := func(wire.Envelope, error) { outcomes++ }

	// A request vax2 is too busy to answer: its timeout stays pending.
	w.kerns["vax2"].ExecCPU(10*time.Minute, func() {})
	l.sendRequest(trace.Context{}, l.peers["vax2"].sb, wire.MsgPing, body, 0, done)
	// A hello vax3 is too busy to answer: its timeout stays pending.
	l.ensureSibling(trace.Context{}, "vax3", func(*sibling, error) { outcomes++ })
	w.until(func() bool { return l.circuitStateOf("vax3") == journal.CircuitAuthenticating })
	w.kerns["vax3"].ExecCPU(10*time.Minute, func() {})
	// A call to the dead vax4 fails its first attempt and backs off.
	l.remoteCall(trace.Context{}, "vax4", wire.MsgPing, body, done)
	w.until(func() bool { return l.retryBackoffs == 1 })
	// Recovery's timers come through its environment.
	recTmr := (*recEnv)(l).After(30*time.Second, func() { outcomes++ })
	w.run(time.Second) // vax1's CPU drains: only timers are left on its boot

	dialing := 0 // dials in flight, to any host
	for _, p := range l.ordered {
		dialing += pendingCount(p.dial != nil)
	}
	timers := []struct {
		name  string
		armed int
	}{
		{"ttl", pendingCount(!l.ttlTimer.Fired())},
		{"linktest", pendingCount(!l.peers["vax2"].sb.ltTimer.Fired())},
		{"request", len(l.pending)},
		{"hello", dialing},
		{"backoff", l.retryBackoffs},
		{"recovery", pendingCount(!recTmr.Fired())},
		{"redial", pendingCount(!l.redialTmr.Fired())},
	}
	boot := 0
	for _, tm := range timers {
		if tm.armed != 1 {
			t.Fatalf("%d %s timers armed before the crash, want 1", tm.armed, tm.name)
		}
		boot += tm.armed
	}
	if err := w.net.Crash("vax1"); err != nil {
		t.Fatal(err)
	}
	before := w.sched.Pending()
	w.kerns["vax1"].Crash()
	if dropped := before - w.sched.Pending(); dropped != boot {
		t.Fatalf("the crash dropped %d events, want the boot's %d", dropped, boot)
	}
	crashedAt := w.sched.Now().Duration()
	w.run(5 * time.Minute) // past every timeout, backoff and tick the boot had armed
	if recs := j.Select(journal.Filter{Host: "vax1", Since: crashedAt + 1}); len(recs) != 0 {
		t.Fatalf("%d records for the crashed host before its restart, first %v", len(recs), recs[0])
	}
	if outcomes != 0 {
		t.Fatalf("%d callbacks of the crashed boot ran", outcomes)
	}
}

func pendingCount(pending bool) int {
	if pending {
		return 1
	}
	return 0
}
