package lpm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/simnet"
)

// The redial loop: a circuit that broke with an error marks its peer
// lost, and every redialEvery a pass dials the lost peers in host order
// until each circuit is up again.

// redialWorld is vax1's LPM, the CCS (so a loss starts no seek), with a
// circuit to each of peers; hosts are every host of the world.
func redialWorld(t *testing.T, hosts []string, peers ...string) (*world, *journal.Journal, *LPM) {
	t.Helper()
	w := newWorld(t, Config{}, hosts)
	j := installJournal(w)
	l := w.attach("vax1", w.user("felipe", hosts...))
	l.Recovery().SetCCS("vax1")
	for _, h := range peers {
		w.ensure(l, h)
	}
	return w, j, l
}

// cut partitions hosts off from the rest and waits until l has lost
// each of them, then exits their LPMs: only l's redial loop dials back,
// recreating them on demand.
func (w *world) cut(l *LPM, hosts ...string) {
	w.t.Helper()
	if err := w.net.Partition(hosts); err != nil {
		w.t.Fatal(err)
	}
	for _, h := range hosts {
		w.until(func() bool { return l.peers[h].lost })
		w.lpms[h+"/felipe"].Exit()
	}
}

// redialsBy lists the peers host's redial loop dialed, in order.
func redialsBy(j *journal.Journal, host string) []string {
	var out []string
	for _, r := range j.Select(journal.Filter{Kinds: []journal.Kind{journal.LPMRedial}, Host: host}) {
		if _, rest, _ := strings.Cut(r.Detail, " peer="); strings.HasSuffix(rest, " reason=recovery") {
			out = append(out, strings.TrimSuffix(rest, " reason=recovery"))
		}
	}
	return out
}

func TestRedialLoopReknitsLostSibling(t *testing.T) {
	w, j, l := redialWorld(t, []string{"vax1", "vax2"}, "vax2")
	w.cut(l, "vax2")
	// First pass: still unreachable; the host stays in the loop.
	w.run(15 * time.Second)
	if len(redialsBy(j, "vax1")) == 0 {
		t.Fatal("redial loop never fired")
	}
	if !l.peers["vax2"].lost {
		t.Fatal("unreachable host dropped from the loop")
	}
	// Heal: the next pass brings the circuit back and the loop drains.
	w.net.Heal()
	w.run(30 * time.Second)
	if p := l.peers["vax2"]; p.lost || p.open() == nil {
		t.Fatalf("after heal: lost=%v open=%v", p.lost, p.open() != nil)
	}
	n := len(redialsBy(j, "vax1"))
	w.run(time.Minute)
	if got := redialsBy(j, "vax1"); len(got) != n {
		t.Fatalf("redial loop still firing with nothing lost: %v", got)
	}
}

func TestRedialWalksAllLostHostsInOrder(t *testing.T) {
	w, j, l := redialWorld(t, []string{"vax1", "vax3", "vax4"}, "vax3", "vax4")
	w.cut(l, "vax4") // lost first, dialed second
	w.cut(l, "vax3")
	w.net.Heal()
	w.run(15 * time.Second)
	// One pass, in host order regardless of loss order.
	if got := redialsBy(j, "vax1"); !slices.Equal(got, []string{"vax3", "vax4"}) {
		t.Fatalf("redials = %v, want [vax3 vax4]", got)
	}
	if l.peers["vax3"].lost || l.peers["vax4"].lost {
		t.Fatal("a host stayed lost, both were reachable")
	}
}

func TestRedialSkipsHostThatDialedBack(t *testing.T) {
	w, j, l := redialWorld(t, []string{"vax1", "vax2"}, "vax2")
	if err := w.net.Partition([]string{"vax2"}); err != nil {
		t.Fatal(err)
	}
	l2 := w.lpms["vax2/felipe"]
	w.until(func() bool { return l.peers["vax2"].lost && l2.peers["vax1"].lost })
	w.net.Heal()
	w.ensure(l2, "vax1") // the peer dials back before the timer fires
	if l.peers["vax2"].lost {
		t.Fatal("a registered circuit left its host lost")
	}
	w.run(time.Minute)
	if got := redialsBy(j, "vax1"); len(got) != 0 {
		t.Fatalf("redialed a host whose circuit is already up: %v", got)
	}
}

func TestRedialRunsWhileSeeking(t *testing.T) {
	// Losing the CCS starts a seek; the lost host must still enter the
	// redial loop so the circuit re-knits after the heal, not only the
	// CCS role.
	w, j, l1 := redialWorld(t, []string{"vax1", "vax2"})
	w.rlist = []string{"vax1", "vax2"}
	w.ensure(l1, "vax2")
	l2 := w.lpms["vax2/felipe"]
	w.until(func() bool { return l2.Recovery().CCS() == "vax1" })
	if err := w.net.Partition([]string{"vax2"}); err != nil {
		t.Fatal(err)
	}
	w.until(func() bool { return l2.Recovery().IsCCS() })
	if !l2.peers["vax1"].lost {
		t.Fatal("the lost CCS's host is not in the redial loop")
	}
	l1.Exit() // only vax2 dials back
	w.net.Heal()
	w.run(30 * time.Second)
	if p := l2.peers["vax1"]; p.lost || p.open() == nil {
		t.Fatalf("after heal: lost=%v open=%v", p.lost, p.open() != nil)
	}
	if got := redialsBy(j, "vax2"); !slices.Contains(got, "vax1") {
		t.Fatalf("redials = %v, want vax1 among them", got)
	}
}

func TestExitCancelsRedial(t *testing.T) {
	w, j, l := redialWorld(t, []string{"vax1", "vax2"}, "vax2")
	w.cut(l, "vax2")
	l.Exit()
	if !l.redialTmr.Fired() {
		t.Fatal("redial timer armed after Exit")
	}
	w.net.Heal()
	w.run(time.Minute)
	if got := redialsBy(j, "vax1"); len(got) != 0 {
		t.Fatalf("redial fired after Exit: %v", got)
	}
}

// TestRedialSkipsSupersededCircuitsBreak: the break of a circuit that
// is no longer its peer's, reported with an error while the replacement
// is open, marks the host lost; the pass finds the live circuit, dials
// nothing and leaves no timer armed.
func TestRedialSkipsSupersededCircuitsBreak(t *testing.T) {
	w, j, l := redialWorld(t, []string{"vax1", "vax2"})
	old := w.ensure(l, "vax2")
	old.conn.Close()
	w.run(time.Second)
	if w.ensure(l, "vax2") == old {
		t.Fatal("setup: no replacement circuit")
	}
	l.onSiblingClosed(old, simnet.ErrPeerLost)
	if !l.peers["vax2"].lost || l.redialTmr.Fired() {
		t.Fatal("setup: the break did not enter the redial loop")
	}
	w.run(15 * time.Second)
	if got := redialsBy(j, "vax1"); len(got) != 0 {
		t.Fatalf("redialed a host with a live circuit: %v", got)
	}
	if l.peers["vax2"].lost || !l.redialTmr.Fired() {
		t.Fatalf("after the pass: lost=%v timer armed=%v", l.peers["vax2"].lost, !l.redialTmr.Fired())
	}
}
