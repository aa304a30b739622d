package lpm

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/proc"
	"ppm/internal/wire"
)

// chainWorld builds circuits a-b and b-c (no a-c), with UseRelay on,
// runs a snapshot so a learns the route to c, and returns the world
// plus the LPMs and a process on c.
func chainWorld(t *testing.T, cfg Config) (*world, *LPM, *LPM, proc.GPID) {
	t.Helper()
	cfg.UseRelay = true
	w := newWorld(t, cfg, []string{"a", "b", "c"})
	installMetrics(w)
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	w.create(la, "a", "pa", proc.GPID{})
	w.create(la, "b", "pb", proc.GPID{})
	lb := w.lpms["b/felipe"]
	target := w.create(lb, "c", "pc", proc.GPID{})
	w.run(500 * time.Millisecond)
	// The snapshot flood teaches a the route a->b->c.
	_ = w.snapshot(la)
	return w, la, lb, target
}

func TestRelayRouteLearnedFromBroadcast(t *testing.T) {
	_, la, _, _ := chainWorld(t, Config{})
	path, ok := la.KnownRoute("c")
	if !ok {
		t.Fatal("route to c not learned")
	}
	if len(path) != 2 || path[0] != "b" || path[1] != "c" {
		t.Fatalf("path = %v, want [b c]", path)
	}
	if _, ok := la.KnownRoute("nowhere"); ok {
		t.Fatal("phantom route")
	}
}

func TestRelayControlAvoidsNewCircuit(t *testing.T) {
	w, la, _, target := chainWorld(t, Config{})
	for _, h := range la.SiblingHosts() {
		if h == "c" {
			t.Fatal("setup: a must not have a circuit to c")
		}
	}
	resp, err := w.control(la, target, wire.OpStop, 0)
	if err != nil || !resp.OK {
		t.Fatalf("relayed stop: %v %+v", err, resp)
	}
	if resp.State != proc.Stopped {
		t.Fatalf("state = %v", resp.State)
	}
	// Still no direct circuit: the request travelled through b.
	for _, h := range la.SiblingHosts() {
		if h == "c" {
			t.Fatal("relay should not have opened a circuit to c")
		}
	}
	if got := w.counter("lpm.relay.originated"); got != 1 {
		t.Fatalf("relays originated = %d", got)
	}
	// b is the only hop between a and c, so the one forward is b's.
	if got := w.counter("lpm.relay.forwarded"); got != 1 {
		t.Fatalf("relays forwarded = %d", got)
	}
}

func TestRelayStatsAndFDs(t *testing.T) {
	w, la, _, target := chainWorld(t, Config{})
	if _, err := w.kerns["c"].OpenFD(target.PID, "/tmp/x"); err != nil {
		t.Fatal(err)
	}
	var open []string
	done := false
	la.FDs(target, func(o []string, err error) {
		if err != nil {
			t.Fatal(err)
		}
		open, done = o, true
	})
	w.until(func() bool { return done })
	found := false
	for _, s := range open {
		if strings.Contains(s, "/tmp/x") {
			found = true
		}
	}
	if !found {
		t.Fatalf("relayed fds = %v", open)
	}

	var info proc.Info
	done = false
	la.StatsOf(target, func(i proc.Info, err error) {
		if err != nil {
			t.Fatal(err)
		}
		info, done = i, true
	})
	w.until(func() bool { return done })
	if info.ID != target {
		t.Fatalf("relayed stats: %+v", info)
	}
}

func TestRelayDisabledOpensCircuit(t *testing.T) {
	// Same chain, but UseRelay off: the control op opens a direct a-c
	// circuit.
	w := newWorld(t, Config{}, []string{"a", "b", "c"})
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	w.create(la, "b", "pb", proc.GPID{})
	lb := w.lpms["b/felipe"]
	target := w.create(lb, "c", "pc", proc.GPID{})
	w.run(500 * time.Millisecond)
	_ = w.snapshot(la)
	resp, err := w.control(la, target, wire.OpStop, 0)
	if err != nil || !resp.OK {
		t.Fatalf("stop: %v %+v", err, resp)
	}
	hasC := false
	for _, h := range la.SiblingHosts() {
		if h == "c" {
			hasC = true
		}
	}
	if !hasC {
		t.Fatal("without relay a direct circuit should have been opened")
	}
}

func TestRelayFallsBackToDirectCircuitWhenIntermediaryDies(t *testing.T) {
	w, la, _, target := chainWorld(t, Config{})
	// b goes down: the relay path's first hop is gone, so the LPM falls
	// back to opening a direct circuit to c.
	_ = w.net.Crash("b")
	w.kerns["b"].Crash()
	w.run(5 * time.Second)
	resp, err := w.control(la, target, wire.OpStop, 0)
	if err != nil || !resp.OK {
		t.Fatalf("fallback stop failed: %v %+v", err, resp)
	}
	hasC := false
	for _, h := range la.SiblingHosts() {
		if h == "c" {
			hasC = true
		}
	}
	if !hasC {
		t.Fatal("fallback should have opened a direct circuit to c")
	}
	if w.counter("lpm.relay.originated") != 0 {
		t.Fatal("no relay should have been attempted with the first hop down")
	}
}

func TestRelayDestinationFailureReturnsError(t *testing.T) {
	w, la, _, target := chainWorld(t, Config{})
	// c goes down: the relay reaches b, b cannot reach c, the op fails
	// cleanly rather than hanging.
	_ = w.net.Crash("c")
	w.kerns["c"].Crash()
	w.run(5 * time.Second)
	_, err := w.control(la, target, wire.OpStop, 0)
	if err == nil {
		t.Fatal("relay to a crashed destination should fail")
	}
}

func TestRelayLatencyCheaperThanColdCircuitButDearerThanWarm(t *testing.T) {
	w, la, _, target := chainWorld(t, Config{})
	startRelay := w.sched.Now()
	if _, err := w.control(la, target, wire.OpStop, 0); err != nil {
		t.Fatal(err)
	}
	relayMS := msBetween(startRelay, w.sched.Now())

	// A warm direct circuit (one hop on this LAN) costs 199 ms; the
	// relayed op pays two store-and-forward legs each way instead of
	// one: roughly 368 ms.
	if relayMS < 330 || relayMS > 410 {
		t.Fatalf("relayed stop took %.1f ms, expected ~368", relayMS)
	}
}

func TestRelayedCreateWorks(t *testing.T) {
	w, la, _, _ := chainWorld(t, Config{})
	id := w.create(la, "c", "relayed-job", proc.GPID{})
	if id.Host != "c" {
		t.Fatalf("created on %s", id.Host)
	}
	w.run(time.Second)
	p, err := w.kerns["c"].Lookup(id.PID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Traced || p.Name != "relayed-job" {
		t.Fatalf("relayed create: %+v", p)
	}
	if w.counter("lpm.relay.originated") == 0 {
		t.Fatal("create did not use the relay")
	}
}
