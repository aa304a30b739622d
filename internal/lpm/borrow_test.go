package lpm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ppm/internal/history"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/status"
	"ppm/internal/wire"
)

// An arrival's body is borrowed until its dispatch returns (DESIGN.md
// §10 "Frames cross one way"): the hop reads it from its LPM's arrival
// buffer, and the buffer is emptied once the newest arrival dispatches.

// outcomes is what a scenario's operations reported, in order.
type outcomes struct {
	w     *world
	lines []string
}

// await starts op and runs the world until op has reported.
func (o *outcomes) await(op func(report func(...any))) {
	o.w.t.Helper()
	done := false
	op(func(v ...any) {
		o.lines = append(o.lines, fmt.Sprint(v...))
		done = true
	})
	o.w.until(func() bool { return done })
}

// borrowScenarios are the exchanges whose bodies outlive a dispatch
// unless they are decoded, copied or cloned in time: floods with
// interior hops, the tool leg after a remote reply, relayed calls, a
// tool socket's forwarded call, and retries across a flapping link.
var borrowScenarios = []struct {
	name  string
	hosts []string
	cfg   Config
	run   func(o *outcomes, hosts []string)
}{
	{"floods over a tree with a cross edge", h8, Config{}, func(o *outcomes, hosts []string) {
		w := o.w
		procs := growTree(o, hosts)
		o.await(func(r func(...any)) {
			w.lpms["h3/felipe"].StatsOf(procs[5], func(i proc.Info, err error) { r(i, err) })
		})
		l := w.lpms["h0/felipe"]
		o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(s, err) }) })
		o.await(func(r func(...any)) { l.StatusSweep(hosts, func(s status.Sweep, err error) { r(s, err) }) })
		o.await(func(r func(...any)) { l.ControlAll(wire.OpStop, 0, func(n int, err error) { r(n, err) }) })
		o.await(func(r func(...any)) { l.ControlAll(wire.OpForeground, 0, func(n int, err error) { r(n, err) }) })
		o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(s, err) }) })
	}},
	{"status sweeps between snapshots", h8, Config{}, func(o *outcomes, hosts []string) {
		w := o.w
		growTree(o, hosts)
		l := w.lpms["h0/felipe"]
		sweep := func() {
			o.await(func(r func(...any)) { l.StatusSweep(hosts, func(s status.Sweep, err error) { r(s.Render(), err) }) })
		}
		snapshot := func() {
			o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(s.Render(), err) }) })
		}
		sweep()
		snapshot()
		sweep()
		sweep()
		// Past the window: the snapshots' cached echoes are evicted, and
		// the sweeps' echoes are encoded into their bodies.
		w.run(3 * time.Minute)
		sweep()
		snapshot()
		sweep()
	}},
	{"remote operations through the tool leg", []string{"vax1", "vax2"}, Config{}, func(o *outcomes, hosts []string) {
		w := o.w
		u := w.user("felipe", hosts...)
		l := w.attach("vax1", u)
		var p proc.GPID
		o.await(func(r func(...any)) {
			l.Create("vax2", "worker", proc.GPID{}, func(g proc.GPID, err error) { p = g; r(g, err) })
		})
		sentinel := w.create(l, "vax2", "sentinel", proc.GPID{})
		local := w.create(l, "vax1", "local", proc.GPID{})
		w.run(time.Second)
		o.await(func(r func(...any)) { l.Control(p, wire.OpStop, 0, func(c wire.ControlResp, err error) { r(c, err) }) })
		o.await(func(r func(...any)) { l.StatsOf(p, func(i proc.Info, err error) { r(i, err) }) })
		o.await(func(r func(...any)) { l.FDs(p, func(fds []string, err error) { r(fds, err) }) })
		o.await(func(r func(...any)) { l.Ping("vax2", func(pong wire.Pong, err error) { r(pong, err) }) })
		o.await(func(r func(...any)) {
			l.HistoryOf("vax2", history.Query{}, func(evs []proc.Event, err error) { r(evs, err) })
		})
		o.await(func(r func(...any)) {
			l.WatchOn("vax2", &history.Watch{Kind: proc.EvExit, Proc: sentinel}, wire.OpStop, 0, local,
				func(rm func(), err error) { r(rm != nil, err) })
		})
		_ = w.kerns["vax2"].Exit(sentinel.PID, 0)
		w.run(2 * time.Second)
		info, err := w.kerns["vax1"].Info(local.PID)
		o.lines = append(o.lines, fmt.Sprint("watched action: ", info.State, err))
	}},
	{"relayed calls", []string{"a", "b", "c"}, Config{UseRelay: true}, func(o *outcomes, hosts []string) {
		w := o.w
		u := w.user("felipe", hosts...)
		la := w.attach("a", u)
		w.create(la, "b", "pb", proc.GPID{})
		target := w.create(w.lpms["b/felipe"], "c", "pc", proc.GPID{})
		w.run(500 * time.Millisecond)
		o.await(func(r func(...any)) { la.Snapshot(func(s proc.Snapshot, err error) { r(s, err) }) })
		o.await(func(r func(...any)) { la.StatsOf(target, func(i proc.Info, err error) { r(i, err) }) })
		o.await(func(r func(...any)) { la.FDs(target, func(fds []string, err error) { r(fds, err) }) })
		o.await(func(r func(...any)) {
			la.Control(target, wire.OpKill, 0, func(c wire.ControlResp, err error) { r(c, err) })
		})
		o.lines = append(o.lines, fmt.Sprint("a's circuits: ", la.SiblingHosts()))
	}},
	{"a tool socket's remote call", []string{"vax1", "vax2"}, Config{}, func(o *outcomes, hosts []string) {
		w := o.w
		u := w.user("felipe", hosts...)
		l := w.attach("vax1", u)
		p := w.create(l, "vax2", "worker", proc.GPID{})
		w.run(time.Second)
		tc := w.tool(u, "vax1")
		o.await(func(r func(...any)) { tc.Stats(p, func(i proc.Info, err error) { r(i, err) }) })
		o.await(func(r func(...any)) {
			tc.Control(p, wire.OpStop, 0, func(c wire.ControlResp, err error) { r(c, err) })
		})
		o.await(func(r func(...any)) { tc.Snapshot(func(s proc.Snapshot, err error) { r(s, err) }) })
	}},
	{"a kill across a flapping link", []string{"a", "b", "c"}, Config{
		Linktest:       250 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 6, BaseBackoff: 500 * time.Millisecond},
	}, func(o *outcomes, hosts []string) {
		w := o.w
		u := w.user("felipe", hosts...)
		l := w.attach("a", u)
		root := w.create(l, "a", "root", proc.GPID{})
		wb := w.create(l, "b", "wb", root)
		wc := w.create(l, "c", "wc", root)
		w.net.FlapLink("a", "b", 2*time.Second, 1500*time.Millisecond, 3)
		o.await(func(r func(...any)) { l.Control(wb, wire.OpStop, 0, func(c wire.ControlResp, err error) { r(c, err) }) })
		w.run(2200 * time.Millisecond)
		o.await(func(r func(...any)) { l.Control(wb, wire.OpKill, 0, func(c wire.ControlResp, err error) { r(c, err) }) })
		o.await(func(r func(...any)) { l.Control(wc, wire.OpKill, 0, func(c wire.ControlResp, err error) { r(c, err) }) })
		o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(s, err) }) })
		w.run(30 * time.Second)
	}},
}

var h8 = []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}

// growTree has felipe's LPM on hosts[0] root a 3-ary tree of processes,
// one per host, each created by its parent's LPM, so the circuits are
// the tree's edges; it returns the processes in host order.
func growTree(o *outcomes, hosts []string) []proc.GPID {
	w := o.w
	u := w.user("felipe", hosts...)
	procs := make([]proc.GPID, len(hosts))
	for pos, h := range hosts {
		at, under := hosts[0], proc.GPID{}
		if pos > 0 {
			at, under = hosts[(pos-1)/3], procs[(pos-1)/3]
		}
		procs[pos] = w.create(w.attach(at, u), h, fmt.Sprintf("node%02d", pos), under)
	}
	return procs
}

// TestSweepOwnsItsReports holds a sweep to owning what it returns: the
// flood's report buffer and the LPM's scratch report serve the next
// sweep, and the reports' lists share two arrays, so a report that still
// pointed into any of them would change under a later sweep, and one
// whose list had room beyond its end would take another's elements on
// an append.
func TestSweepOwnsItsReports(t *testing.T) {
	w := newWorld(t, Config{}, h8)
	o := &outcomes{w: w}
	procs := growTree(o, h8)
	o.await(func(r func(...any)) {
		w.lpms["h3/felipe"].StatsOf(procs[5], func(i proc.Info, err error) { r(i, err) })
	})
	l := w.lpms["h0/felipe"]
	sweep := func() (sw status.Sweep) {
		o.await(func(r func(...any)) {
			l.StatusSweep(h8, func(s status.Sweep, err error) { sw = s; r(err) })
		})
		return sw
	}
	first := sweep()
	want := first
	want.Reports = slices.Clone(first.Reports)
	withCircuits := 0
	for i := range want.Reports {
		want.Reports[i].Circuits = slices.Clone(want.Reports[i].Circuits)
		want.Reports[i].OpLatencies = slices.Clone(want.Reports[i].OpLatencies)
		if len(want.Reports[i].Circuits) > 0 {
			withCircuits++
		}
	}
	if len(first.Reports) != len(h8) || withCircuits < 2 {
		t.Fatalf("the sweep returned %d reports, %d with circuits: %s", len(first.Reports), withCircuits, first.Render())
	}
	sweep()
	o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(err) }) })
	sweep()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("later sweeps changed the first one's reports: now\n%s\nwas\n%s", first.Render(), want.Render())
	}
	for _, rep := range first.Reports {
		_ = append(rep.Circuits, status.CircuitStatus{Peer: "intruder"})
		_ = append(rep.OpLatencies, status.OpLatency{Op: "intruder"})
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("appending to one report's lists wrote into another's: now\n%s\nwas\n%s", first.Render(), want.Render())
	}
}

// TestArrivalsBorrowedForTheirDispatch runs each scenario twice, the
// second time with every arrival's body overwritten once its dispatch
// returns (scribbleArrivals). Whatever kept a body past its dispatch —
// a list pointing into an echo, a reply decoded after the tool leg, a
// relayed reply cached and queued as it arrived — reads garbage then;
// each scenario must report the same outcomes and write a
// byte-identical journal both times.
func TestArrivalsBorrowedForTheirDispatch(t *testing.T) {
	for _, sc := range borrowScenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(scribble bool) (string, *journal.Journal) {
				scribbleArrivals = scribble
				defer func() { scribbleArrivals = false }()
				w := newWorld(t, sc.cfg, sc.hosts)
				j := installJournal(w)
				o := &outcomes{w: w}
				sc.run(o, sc.hosts)
				return strings.Join(o.lines, "\n"), j
			}
			kept, kj := run(false)
			scribbled, sj := run(true)
			if kept != scribbled {
				t.Fatalf("the scenario reported\n%s\nwith bodies kept, and\n%s\nwith them overwritten after dispatch", kept, scribbled)
			}
			if d := journal.Diff(kj, sj); d != nil {
				t.Fatalf("overwriting bodies after dispatch changed the journal:\n%s", d.Format())
			}
		})
	}
}

// TestEvictedRepliesOwnedByTheCache runs each scenario twice, then idles
// past every reply cache's window and takes two snapshots, so the replies
// the scenario cached are evicted and their bodies reused for echoes. The
// second time every body the cache evicts is overwritten first
// (wire.ScribbleEvicted): whatever still read a cached body after its
// eviction — a replay sent from the cache itself, an out-hop queued
// behind the endpoint cost — reads garbage then. Each scenario must
// report the same outcomes and write a byte-identical journal both times.
func TestEvictedRepliesOwnedByTheCache(t *testing.T) {
	for _, sc := range borrowScenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(scribble bool) (string, *journal.Journal, int) {
				wire.ScribbleEvicted = scribble
				defer func() { wire.ScribbleEvicted = false }()
				w := newWorld(t, sc.cfg, sc.hosts)
				j := installJournal(w)
				o := &outcomes{w: w}
				sc.run(o, sc.hosts)
				cached := 0
				for _, l := range w.lpms {
					cached += l.replies.Len()
				}
				w.run(10 * time.Minute)
				l := w.lpms[sc.hosts[0]+"/felipe"]
				for i := 0; i < 2; i++ {
					o.await(func(r func(...any)) { l.Snapshot(func(s proc.Snapshot, err error) { r(s.Render(), err) }) })
				}
				return strings.Join(o.lines, "\n"), j, cached
			}
			kept, kj, cached := run(false)
			scribbled, sj, _ := run(true)
			if cached == 0 {
				t.Fatal("the scenario cached no reply to evict")
			}
			if kept != scribbled {
				t.Fatalf("the scenario reported\n%s\nwith evicted bodies kept, and\n%s\nwith them overwritten", kept, scribbled)
			}
			if d := journal.Diff(kj, sj); d != nil {
				t.Fatalf("overwriting evicted bodies changed the journal:\n%s", d.Format())
			}
		})
	}
}
