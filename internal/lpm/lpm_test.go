package lpm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/daemon"
	"ppm/internal/history"
	"ppm/internal/kernel"
	"ppm/internal/proc"
	"ppm/internal/recovery"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// world wires a full simulated installation: hosts, kernels, daemons
// and on-demand LPMs, exactly as the public facade will.
type world struct {
	t     *testing.T
	sched *sim.Scheduler
	net   *simnet.Network
	kerns map[string]*kernel.Host
	dir   *auth.Directory
	trust *auth.Trust
	dmns  map[string]*daemon.Daemons
	lpms  map[string]*LPM // key: host + "/" + user
	cfg   Config
	rlist []string // every user's .recovery list
	port  uint16
}

// newWorld builds hosts on one shared segment unless segments are
// given as "seg:host1,host2" specs.
func newWorld(t *testing.T, cfg Config, hosts []string, segments ...string) *world {
	t.Helper()
	return newWorldNet(t, cfg, simnet.Options{}, hosts, segments...)
}

// newWorldNet is newWorld with explicit network options (the detector
// tests stretch BreakDetect so the transport's own fixed timeout stays
// out of the way).
func newWorldNet(t *testing.T, cfg Config, opts simnet.Options, hosts []string, segments ...string) *world {
	t.Helper()
	w := &world{
		t:     t,
		sched: sim.NewScheduler(1),
		dir:   auth.NewDirectory(),
		trust: auth.NewTrust(),
		kerns: make(map[string]*kernel.Host),
		dmns:  make(map[string]*daemon.Daemons),
		lpms:  make(map[string]*LPM),
		cfg:   cfg,
		port:  2000,
	}
	w.net = simnet.New(w.sched, opts)
	for _, h := range hosts {
		if err := w.net.AddHost(h); err != nil {
			t.Fatal(err)
		}
		w.kerns[h] = kernel.NewHost(w.sched, h, calib.ModelVAX780)
	}
	if len(segments) == 0 {
		if err := w.net.AddSegment("lan", hosts...); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, spec := range segments {
			parts := strings.SplitN(spec, ":", 2)
			members := strings.Split(parts[1], ",")
			if err := w.net.AddSegment(parts[0], members...); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.trust.AllowAll(hosts...)
	for _, h := range hosts {
		h := h
		factory := func(user string) (simnet.Addr, error) {
			w.port++
			u, err := w.dir.Lookup(user)
			if err != nil {
				return simnet.Addr{}, err
			}
			l, err := New(w.kerns[h], w.net, w.dir, w.dmns[h], u, w.port, w.cfg, recovery.Sites{List: w.rlist})
			if err != nil {
				return simnet.Addr{}, err
			}
			w.lpms[h+"/"+user] = l
			return l.Accept(), nil
		}
		d, err := daemon.Start(w.kerns[h], w.net, w.dir, w.trust, factory, daemon.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.dmns[h] = d
	}
	return w
}

func (w *world) user(name string, rhosts ...string) *auth.User {
	u := w.dir.AddUser(name)
	for _, h := range rhosts {
		_ = w.dir.AllowRHost(name, h)
	}
	return u
}

// attach obtains the user's LPM on host via the Figure 2 exchange.
func (w *world) attach(host string, u *auth.User) *LPM {
	w.t.Helper()
	done := false
	var resp wire.LPMQueryResp
	daemon.QueryLPM(w.net, host, host, u, trace.Context{}, func(r wire.LPMQueryResp, err error) {
		if err != nil {
			w.t.Fatal(err)
		}
		resp, done = r, true
	})
	w.until(func() bool { return done })
	if !resp.OK {
		w.t.Fatalf("attach: %s", resp.Reason)
	}
	l := w.lpms[host+"/"+u.Name]
	if l == nil {
		w.t.Fatal("factory did not record the LPM")
	}
	return l
}

func (w *world) until(cond func() bool) {
	w.t.Helper()
	ok, err := w.sched.RunUntilDone(cond, 5_000_000)
	if err != nil {
		w.t.Fatal(err)
	}
	if !ok {
		w.t.Fatal("condition never satisfied (scheduler idle)")
	}
}

func (w *world) run(d time.Duration) {
	w.t.Helper()
	if err := w.sched.RunFor(d); err != nil {
		w.t.Fatal(err)
	}
}

// create runs l.Create synchronously.
func (w *world) create(l *LPM, host, name string, parent proc.GPID) proc.GPID {
	w.t.Helper()
	var id proc.GPID
	var cerr error
	done := false
	l.Create(host, name, parent, func(g proc.GPID, err error) { id, cerr, done = g, err, true })
	w.until(func() bool { return done })
	if cerr != nil {
		w.t.Fatalf("create %s on %s: %v", name, host, cerr)
	}
	return id
}

func (w *world) control(l *LPM, target proc.GPID, op wire.ControlOp, sig proc.Signal) (wire.ControlResp, error) {
	w.t.Helper()
	var resp wire.ControlResp
	var cerr error
	done := false
	l.Control(target, op, sig, func(r wire.ControlResp, err error) { resp, cerr, done = r, err, true })
	w.until(func() bool { return done })
	return resp, cerr
}

func (w *world) snapshot(l *LPM) proc.Snapshot {
	w.t.Helper()
	var snap proc.Snapshot
	done := false
	l.Snapshot(func(s proc.Snapshot, err error) {
		if err != nil {
			w.t.Fatal(err)
		}
		snap, done = s, true
	})
	w.until(func() bool { return done })
	return snap
}

func msBetween(a, b sim.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// --- creation and timing ---

func TestLocalCreateTiming(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	start := w.sched.Now()
	id := w.create(l, "vax1", "job", proc.GPID{})
	elapsed := msBetween(start, w.sched.Now())
	// Table 2: within-host create is 77 ms at the LPM, plus the two
	// tool legs (22 ms).
	if elapsed < 97 || elapsed > 101 {
		t.Fatalf("local create took %.1f ms, want ~99", elapsed)
	}
	if id.Host != "vax1" {
		t.Fatalf("created on %s", id.Host)
	}
	p, err := w.kerns["vax1"].Lookup(id.PID)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Traced || p.Name != "job" || p.User != "felipe" {
		t.Fatalf("created process: %+v", p)
	}
}

func TestRemoteCreateWarmCircuitTiming(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	// First create pays LPM creation + circuit establishment.
	w.create(l, "vax2", "warmup", proc.GPID{})
	// Second create runs over the warm circuit: the paper's 177 ms
	// plus two tool legs.
	start := w.sched.Now()
	id := w.create(l, "vax2", "job", proc.GPID{})
	elapsed := msBetween(start, w.sched.Now())
	if elapsed < 196 || elapsed > 203 {
		t.Fatalf("warm remote create took %.1f ms, want ~199 (177 + tool legs)", elapsed)
	}
	if id.Host != "vax2" {
		t.Fatalf("created on %s", id.Host)
	}
	// The remote process execs asynchronously after the ack.
	w.run(100 * time.Millisecond)
	p, err := w.kerns["vax2"].Lookup(id.PID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "job" || !p.Traced {
		t.Fatalf("remote process: %+v", p)
	}
}

func TestRemoteCreateSetsLogicalParentAcrossHosts(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	root := w.create(l, "vax1", "root", proc.GPID{})
	child := w.create(l, "vax2", "child", root)
	p, err := w.kerns["vax2"].Lookup(child.PID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Parent != root {
		t.Fatalf("logical parent = %v, want %v", p.Parent, root)
	}
}

// --- control ---

func TestLocalControlTiming(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})
	start := w.sched.Now()
	resp, err := w.control(l, id, wire.OpStop, 0)
	elapsed := msBetween(start, w.sched.Now())
	if err != nil || !resp.OK {
		t.Fatalf("stop: %v %+v", err, resp)
	}
	// Table 2: stop within host is 30 ms.
	if elapsed < 29 || elapsed > 32 {
		t.Fatalf("local stop took %.1f ms, want ~30", elapsed)
	}
	if resp.State != proc.Stopped {
		t.Fatalf("state = %v", resp.State)
	}
}

func TestRemoteControlOneHopTiming(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	id := w.create(l, "vax2", "job", proc.GPID{})
	w.run(200 * time.Millisecond) // let the async exec settle
	start := w.sched.Now()
	resp, err := w.control(l, id, wire.OpStop, 0)
	elapsed := msBetween(start, w.sched.Now())
	if err != nil || !resp.OK {
		t.Fatalf("remote stop: %v %+v", err, resp)
	}
	// Table 2: stop at one hop is 199 ms.
	if elapsed < 196 || elapsed > 204 {
		t.Fatalf("one-hop stop took %.1f ms, want ~199", elapsed)
	}
}

func TestRemoteControlTwoHopsTiming(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "gw", "vax3"},
		"seg1:vax1,gw", "seg2:gw,vax3")
	u := w.user("felipe", "vax1", "gw", "vax3")
	l := w.attach("vax1", u)
	id := w.create(l, "vax3", "job", proc.GPID{})
	w.run(200 * time.Millisecond)
	start := w.sched.Now()
	resp, err := w.control(l, id, wire.OpKill, 0)
	elapsed := msBetween(start, w.sched.Now())
	if err != nil || !resp.OK {
		t.Fatalf("two-hop kill: %v %+v", err, resp)
	}
	// Table 2: terminate at two hops is 210 ms.
	if elapsed < 206 || elapsed > 216 {
		t.Fatalf("two-hop terminate took %.1f ms, want ~210", elapsed)
	}
	if resp.State != proc.Exited {
		t.Fatalf("state = %v", resp.State)
	}
}

func TestControlSemanticsFgBgKill(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})

	if resp, _ := w.control(l, id, wire.OpStop, 0); resp.State != proc.Stopped {
		t.Fatalf("stop -> %v", resp.State)
	}
	if resp, _ := w.control(l, id, wire.OpForeground, 0); resp.State != proc.Running {
		t.Fatalf("fg -> %v", resp.State)
	}
	p, _ := w.kerns["vax1"].Lookup(id.PID)
	if !p.Foreground {
		t.Fatal("not foreground")
	}
	if resp, _ := w.control(l, id, wire.OpBackground, 0); resp.State != proc.Running {
		t.Fatalf("bg -> %v", resp.State)
	}
	if p.Foreground {
		t.Fatal("still foreground")
	}
	if resp, _ := w.control(l, id, wire.OpSignal, proc.SIGUSR1); !resp.OK {
		t.Fatal("signal failed")
	}
	if resp, _ := w.control(l, id, wire.OpKill, 0); resp.State != proc.Exited {
		t.Fatalf("kill -> %v", resp.State)
	}
}

func TestControlNoSuchProcess(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	resp, err := w.control(l, proc.GPID{Host: "vax2", PID: 999}, wire.OpStop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Reason, "no such process") {
		t.Fatalf("resp = %+v", resp)
	}
}

// --- adoption ---

func TestAdoptExistingProcess(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	// A process started outside the PPM (login shell child).
	p, err := w.kerns["vax1"].Spawn("preexisting", "felipe")
	if err != nil {
		t.Fatal(err)
	}
	var aerr error
	done := false
	l.Adopt(p.PID, func(err error) { aerr, done = err, true })
	w.until(func() bool { return done })
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !p.Traced {
		t.Fatal("process not traced after adoption")
	}
	// Its descendants are tracked automatically.
	child, _ := w.kerns["vax1"].Fork(p.PID, "descendant")
	w.run(100 * time.Millisecond)
	snap := w.snapshot(l)
	if _, ok := snap.Find(proc.GPID{Host: "vax1", PID: child.PID}); !ok {
		t.Fatalf("descendant missing from snapshot:\n%s", snap.Render())
	}
}

func TestAdoptForeignProcessFails(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	w.user("other")
	l := w.attach("vax1", u)
	p, _ := w.kerns["vax1"].Spawn("theirs", "other")
	var aerr error
	done := false
	l.Adopt(p.PID, func(err error) { aerr, done = err, true })
	w.until(func() bool { return done })
	if !errors.Is(aerr, kernel.ErrPermission) {
		t.Fatalf("err = %v", aerr)
	}
}

// --- snapshots and genealogy ---

func TestSnapshotGenealogyAcrossThreeHosts(t *testing.T) {
	// The paper's Figure 1 scenario: a computation spanning three hosts.
	w := newWorld(t, Config{}, []string{"hostA", "hostB", "hostC"})
	u := w.user("felipe", "hostA", "hostB", "hostC")
	l := w.attach("hostA", u)
	root := w.create(l, "hostA", "shell-job", proc.GPID{})
	b1 := w.create(l, "hostB", "worker-b", root)
	_ = w.create(l, "hostC", "worker-c", root)
	_ = w.create(l, "hostB", "sub-worker", b1)
	w.run(500 * time.Millisecond)

	snap := w.snapshot(l)
	if len(snap.Hosts()) != 3 {
		t.Fatalf("hosts = %v", snap.Hosts())
	}
	kids := snap.Children(root)
	if len(kids) != 2 {
		t.Fatalf("root children = %d:\n%s", len(kids), snap.Render())
	}
	if snap.IsForest() {
		t.Fatalf("healthy computation should be one tree:\n%s", snap.Render())
	}
	render := snap.Render()
	for _, want := range []string{"shell-job", "worker-b", "worker-c", "sub-worker"} {
		if !strings.Contains(render, want) {
			t.Fatalf("render missing %q:\n%s", want, render)
		}
	}
}

func TestSnapshotMarksExited(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	parent := w.create(l, "vax1", "parent", proc.GPID{})
	_ = w.create(l, "vax1", "child", parent)
	// Parent exits; exit info is retained while children are alive and
	// the snapshot marks it exited.
	_ = w.kerns["vax1"].Exit(parent.PID, 0)
	w.run(100 * time.Millisecond)
	snap := w.snapshot(l)
	info, ok := snap.Find(parent)
	if !ok {
		t.Fatalf("exited parent dropped:\n%s", snap.Render())
	}
	if info.State != proc.Exited {
		t.Fatalf("state = %v", info.State)
	}
	if !strings.Contains(snap.Render(), "parent (exited)") {
		t.Fatalf("render does not mark exit:\n%s", snap.Render())
	}
	if snap.IsForest() {
		t.Fatal("child should still hang off the exited parent")
	}
}

func TestSnapshotChainForwarding(t *testing.T) {
	// Circuits: A-B (A created procs on B), B-C (B created procs on C).
	// A's snapshot must reach C through B: the graph-covering flood.
	w := newWorld(t, Config{}, []string{"a", "b", "c"})
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	w.create(la, "b", "on-b", proc.GPID{})
	lb := w.lpms["b/felipe"]
	if lb == nil {
		t.Fatal("no LPM on b")
	}
	w.create(lb, "c", "on-c", proc.GPID{})
	w.run(500 * time.Millisecond)
	// A has no circuit to C.
	for _, h := range la.SiblingHosts() {
		if h == "c" {
			t.Fatal("test setup: A should not have a direct circuit to C")
		}
	}
	snap := w.snapshot(la)
	hosts := snap.Hosts()
	foundC := false
	for _, h := range hosts {
		if h == "c" {
			foundC = true
		}
	}
	if !foundC {
		t.Fatalf("snapshot did not reach c over the chain: hosts=%v", hosts)
	}
	if len(snap.Partial) != 0 {
		t.Fatalf("partial = %v", snap.Partial)
	}
}

func TestFloodDedupOnCycle(t *testing.T) {
	// Triangle circuits: a-b, b-c, a-c. The flood must visit each host
	// exactly once and answer duplicates without retransmitting.
	w := newWorld(t, Config{}, []string{"a", "b", "c"})
	installMetrics(w)
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	w.create(la, "a", "pa", proc.GPID{})
	w.create(la, "b", "pb", proc.GPID{})
	w.create(la, "c", "pc", proc.GPID{})
	lb := w.lpms["b/felipe"]
	w.create(lb, "c", "pc2", proc.GPID{}) // forms the b-c circuit
	w.run(500 * time.Millisecond)

	snap := w.snapshot(la)
	counts := map[proc.GPID]int{}
	for _, p := range snap.Procs {
		counts[p.ID]++
		if counts[p.ID] > 1 {
			t.Fatalf("process %v duplicated in snapshot", p.ID)
		}
	}
	if len(snap.Hosts()) != 3 {
		t.Fatalf("hosts = %v", snap.Hosts())
	}
	if w.counter("lpm.flood.dedup_hits") == 0 {
		t.Fatal("cycle should have produced at least one deduplicated arrival")
	}
}

// TestSnapshotPartialOnCrashedHost: a host the computation reached and
// lost is partial; a host it never reached (c, down before a create
// there dialed it) is not, though the failed dial left its record.
func TestSnapshotPartialOnCrashedHost(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b", "c"})
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	_ = w.net.Crash("c")
	w.kerns["c"].Crash()
	var cerr error
	done := false
	la.Create("c", "unborn", proc.GPID{}, func(_ proc.GPID, err error) { cerr, done = err, true })
	w.until(func() bool { return done })
	if cerr == nil {
		t.Fatal("create on the unreachable c succeeded")
	}
	w.create(la, "b", "doomed", proc.GPID{})
	w.run(300 * time.Millisecond)
	_ = w.net.Crash("b")
	w.kerns["b"].Crash()
	w.run(5 * time.Second) // let the circuit break
	snap := w.snapshot(la)
	if strings.Join(snap.Partial, ",") != "b" {
		t.Fatalf("partial = %v, want [b]: %+v", snap.Partial, snap)
	}
}

// --- broadcast control ---

func TestControlAllStopsComputationEverywhere(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b", "c"})
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	root := w.create(la, "a", "root", proc.GPID{})
	w.create(la, "b", "wb", root)
	w.create(la, "c", "wc", root)
	w.run(500 * time.Millisecond)

	var count int
	var cerr error
	done := false
	la.ControlAll(wire.OpStop, 0, func(n int, err error) { count, cerr, done = n, err, true })
	w.until(func() bool { return done })
	if cerr != nil {
		t.Fatal(cerr)
	}
	if count != 3 {
		t.Fatalf("stopped %d processes, want 3", count)
	}
	for _, hk := range []struct {
		host string
		pid  proc.PID
	}{{"a", root.PID}} {
		p, _ := w.kerns[hk.host].Lookup(hk.pid)
		if p.State != proc.Stopped {
			t.Fatalf("%s/%d state = %v", hk.host, hk.pid, p.State)
		}
	}
}

// --- authentication ---

func TestSiblingHelloBadTokenRejected(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	_ = l
	addr := l.Accept()
	// A raw connection presenting a forged token.
	var rejected bool
	w.net.Dial("vax2", addr, func(conn *simnet.Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn.SetHandler(func(b []byte) {
			env, _ := wire.DecodeEnvelopeBorrow(b)
			var resp wire.HelloResp
			_ = wire.Decode(env.Body, &resp)
			if !resp.OK {
				rejected = true
			}
		})
		hello := wire.Hello{
			User:     "felipe",
			FromHost: "vax2",
			Token:    []byte("forged"),
			Stamp:    wire.NewSigner([]byte("wrong-key")).Mint("vax2", 0, 1),
		}
		_ = conn.Send(wire.Envelope{Type: wire.MsgHello, Body: wire.Encode(&hello)}.Encode())
	})
	w.run(2 * time.Second)
	if !rejected {
		t.Fatal("forged hello accepted")
	}
	if len(l.SiblingHosts()) != 0 {
		t.Fatal("forged circuit registered")
	}
}

func TestSiblingHelloWrongUserRejected(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	mallory := w.user("mallory", "vax1", "vax2")
	l := w.attach("vax1", u)
	addr := l.Accept()
	var rejected bool
	w.net.Dial("vax2", addr, func(conn *simnet.Conn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn.SetHandler(func(b []byte) {
			env, _ := wire.DecodeEnvelopeBorrow(b)
			var resp wire.HelloResp
			_ = wire.Decode(env.Body, &resp)
			if !resp.OK {
				rejected = true
			}
		})
		// Mallory presents her own valid credentials to felipe's LPM.
		hello := wire.Hello{
			User:     "mallory",
			FromHost: "vax2",
			Token:    auth.MintToken(mallory, "sibling"),
			Stamp:    mallory.Stamps.Mint("vax2", 0, 1),
		}
		_ = conn.Send(wire.Envelope{Type: wire.MsgHello, Body: wire.Encode(&hello)}.Encode())
	})
	w.run(2 * time.Second)
	if !rejected {
		t.Fatal("cross-user hello accepted")
	}
}

// --- TTL and session semantics ---

func TestTTLExpiresIdleLPM(t *testing.T) {
	w := newWorld(t, Config{TTL: 30 * time.Second}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	if l.Exited() {
		t.Fatal("fresh LPM exited")
	}
	w.run(2 * time.Minute)
	if !l.Exited() {
		t.Fatal("idle LPM should have expired")
	}
	if _, ok := w.dmns["vax1"].KnownLPM("felipe"); ok {
		t.Fatal("expired LPM still registered with pmd")
	}
}

func TestTTLFrozenWhileUserProcessesLive(t *testing.T) {
	w := newWorld(t, Config{TTL: 30 * time.Second}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "long-job", proc.GPID{})
	w.run(5 * time.Minute)
	if l.Exited() {
		t.Fatal("LPM with live user processes must not expire")
	}
}

func TestPPMOutlivesLoginSession(t *testing.T) {
	// The user "logs out" (no tool calls) but processes remain; a later
	// attach finds the same LPM with full knowledge of the processes.
	w := newWorld(t, Config{TTL: time.Hour}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "survivor", proc.GPID{})
	w.run(30 * time.Minute) // logged out; the PPM outlives the session
	l2 := w.attach("vax1", u)
	if l2 != l {
		t.Fatal("re-attach should find the existing LPM")
	}
	snap := w.snapshot(l2)
	if _, ok := snap.Find(id); !ok {
		t.Fatal("process knowledge lost across sessions")
	}
}

// --- history, stats, fds ---

func TestHistoryRecordsEvents(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})
	_, _ = w.control(l, id, wire.OpStop, 0)
	_, _ = w.control(l, id, wire.OpForeground, 0)
	_, _ = w.control(l, id, wire.OpKill, 0)
	w.run(time.Second)

	var evs []proc.Event
	done := false
	l.HistoryOf("", history.Query{Proc: id}, func(e []proc.Event, err error) {
		if err != nil {
			t.Fatal(err)
		}
		evs, done = e, true
	})
	w.until(func() bool { return done })
	kinds := map[proc.EventKind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[proc.EvStop] == 0 || kinds[proc.EvCont] == 0 || kinds[proc.EvExit] == 0 {
		t.Fatalf("history kinds = %v", kinds)
	}
}

func TestExitedProcessStatsPreserved(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})
	_ = w.kerns["vax1"].Syscall(id.PID, "read")
	_ = w.kerns["vax1"].Syscall(id.PID, "write")
	_, _ = w.control(l, id, wire.OpKill, 0)
	w.run(time.Second)

	var info proc.Info
	done := false
	l.StatsOf(id, func(i proc.Info, err error) {
		if err != nil {
			t.Fatal(err)
		}
		info, done = i, true
	})
	w.until(func() bool { return done })
	if info.State != proc.Exited {
		t.Fatalf("state = %v", info.State)
	}
	if info.Rusage.Syscalls < 2 {
		t.Fatalf("rusage lost: %+v", info.Rusage)
	}
}

func TestRemoteFDs(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	id := w.create(l, "vax2", "job", proc.GPID{})
	w.run(200 * time.Millisecond)
	if _, err := w.kerns["vax2"].OpenFD(id.PID, "/tmp/data"); err != nil {
		t.Fatal(err)
	}
	var open []string
	done := false
	l.FDs(id, func(o []string, err error) {
		if err != nil {
			t.Fatal(err)
		}
		open, done = o, true
	})
	w.until(func() bool { return done })
	found := false
	for _, s := range open {
		if strings.Contains(s, "/tmp/data") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fds = %v", open)
	}
}

// --- handler pool ---

func TestHandlerReuse(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	for i := 0; i < 5; i++ {
		w.create(l, "vax2", "job", proc.GPID{})
	}
	// Only vax1's LPM sends requests here, so the installation-wide
	// handler counters are its own.
	if w.counter("lpm.handler.reuses") == 0 {
		t.Fatal("handlers never reused")
	}
	if got := w.counter("lpm.handler.forks"); got > 2 {
		t.Fatalf("too many handler forks with a warm pool: %d", got)
	}
}

func TestNoHandlerReuseForksEveryTime(t *testing.T) {
	w := newWorld(t, Config{NoHandlerReuse: true}, []string{"vax1", "vax2"})
	installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	for i := 0; i < 3; i++ {
		w.create(l, "vax2", "job", proc.GPID{})
	}
	if w.counter("lpm.handler.reuses") != 0 {
		t.Fatal("reuse happened despite NoHandlerReuse")
	}
	if got := w.counter("lpm.handler.forks"); got < 3 {
		t.Fatalf("forks = %d, want one per request", got)
	}
}

// --- recovery ---

func TestCrashOfCCSFailsOverToRecoveryList(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b"})
	w.rlist = []string{"a", "b"}
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	la.Recovery().SetCCS("a")
	w.create(la, "b", "job", proc.GPID{})
	lb := w.lpms["b/felipe"]
	w.run(time.Second)
	if lb.Recovery().CCS() != "a" {
		t.Fatalf("ccs propagation failed: %q", lb.Recovery().CCS())
	}
	// The CCS host crashes.
	_ = w.net.Crash("a")
	w.kerns["a"].Crash()
	w.run(time.Minute)
	if lb.Recovery().CCS() != "b" || !lb.Recovery().IsCCS() {
		t.Fatalf("b should have become CCS, has %q", lb.Recovery().CCS())
	}
}

func TestIsolatedLPMTimeToDieKillsProcesses(t *testing.T) {
	cfg := Config{}
	cfg.Recovery.TimeToDie = time.Minute
	cfg.Recovery.RetryEvery = 20 * time.Second
	w := newWorld(t, cfg, []string{"a", "b"})
	w.rlist = []string{"a"} // only the (about to die) home host
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	la.Recovery().SetCCS("a")
	id := w.create(la, "b", "victim", proc.GPID{})
	lb := w.lpms["b/felipe"]
	w.run(time.Second)
	_ = w.net.Crash("a")
	w.kerns["a"].Crash()
	w.run(10 * time.Minute)
	if !lb.Exited() {
		t.Fatal("isolated LPM should have exited after time-to-die")
	}
	p, err := w.kerns["b"].Lookup(id.PID)
	if err == nil && (p.State == proc.Running || p.State == proc.Stopped) {
		t.Fatal("time-to-die should have terminated the user's processes")
	}
}

func TestPartitionProducesTwoCCSsThenRejoins(t *testing.T) {
	cfg := Config{}
	cfg.Recovery.ProbeEvery = 20 * time.Second
	w := newWorld(t, cfg, []string{"a", "b", "c"})
	w.rlist = []string{"a", "b"}
	u := w.user("felipe", "a", "b", "c")
	la := w.attach("a", u)
	la.Recovery().SetCCS("a")
	root := w.create(la, "a", "root", proc.GPID{})
	w.create(la, "b", "wb", root)
	w.create(la, "c", "wc", root)
	lb, lc := w.lpms["b/felipe"], w.lpms["c/felipe"]
	w.run(2 * time.Second)

	// Partition: {a} vs {b, c}.
	if err := w.net.Partition([]string{"a"}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Minute)
	if !lb.Recovery().IsCCS() {
		t.Fatalf("b should be the CCS of its partition (ccs=%q state=%v)",
			lb.Recovery().CCS(), lb.Recovery().State())
	}
	if la.Recovery().CCS() != "a" {
		t.Fatal("a should still consider itself CCS")
	}
	_ = lc

	// Heal: b's low-frequency probe finds a and demotes itself.
	w.net.Heal()
	w.run(3 * time.Minute)
	if lb.Recovery().CCS() != "a" {
		t.Fatalf("after heal b's ccs = %q, want a", lb.Recovery().CCS())
	}
	if lb.Recovery().IsCCS() {
		t.Fatal("b should have demoted itself")
	}
}

// --- ping ---

func TestPingReportsCCS(t *testing.T) {
	w := newWorld(t, Config{}, []string{"a", "b"})
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	la.Recovery().SetCCS("a")
	w.create(la, "b", "job", proc.GPID{})
	w.run(time.Second)
	var pong wire.Pong
	done := false
	la.Ping("b", func(p wire.Pong, err error) {
		if err != nil {
			t.Fatal(err)
		}
		pong, done = p, true
	})
	w.until(func() bool { return done })
	if pong.FromHost != "b" || pong.CCSHost != "a" {
		t.Fatalf("pong = %+v", pong)
	}
}
