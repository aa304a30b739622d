package ppm_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/status"
)

func twoHostCluster(t *testing.T) *ppm.Cluster {
	t.Helper()
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "vax1"}, {Name: "vax2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	return c
}

// auditClean asserts the flight recorder's invariant audit finds
// nothing; the failure-injection tests run it after recovering so a
// protocol breach hidden by an otherwise-happy outcome still fails.
func auditClean(t *testing.T, c *ppm.Cluster) {
	t.Helper()
	if vs := c.JournalAudit(); len(vs) != 0 {
		t.Fatalf("journal audit violations:\n%s", journal.AuditReport(vs))
	}
}

func TestAttachCreatesLPMOnDemand(t *testing.T) {
	c := twoHostCluster(t)
	sess, err := c.Attach("felipe", "vax1")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Home() != "vax1" || sess.User() != "felipe" {
		t.Fatalf("session: %s@%s", sess.User(), sess.Home())
	}
	if _, ok := c.ManagerOn("vax1", "felipe"); !ok {
		t.Fatal("LPM not created")
	}
	// Re-attach finds the same manager.
	sess2, err := c.Attach("felipe", "vax1")
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Manager() != sess.Manager() {
		t.Fatal("re-attach created a second LPM")
	}
}

func TestAttachUnknownUserOrHost(t *testing.T) {
	c := twoHostCluster(t)
	if _, err := c.Attach("ghost", "vax1"); !errors.Is(err, ppm.ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Attach("felipe", "nowhere"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunAndControlAcrossHosts(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	root, err := sess.Run("vax1", "pipeline")
	if err != nil {
		t.Fatal(err)
	}
	worker, err := sess.RunChild("vax2", "worker", root)
	if err != nil {
		t.Fatal(err)
	}
	if worker.Host != "vax2" {
		t.Fatalf("worker on %s", worker.Host)
	}
	if err := sess.Stop(worker); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	info, ok := snap.Find(worker)
	if !ok || info.State != proc.Stopped {
		t.Fatalf("worker info: %+v ok=%v", info, ok)
	}
	if err := sess.Foreground(worker); err != nil {
		t.Fatal(err)
	}
	if err := sess.Kill(worker); err != nil {
		t.Fatal(err)
	}
}

func TestControlErrorType(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	err := sess.Stop(ppm.GPID{Host: "vax2", PID: 4242})
	var ce *ppm.ControlError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if ce.Op != "stop" || ce.Target.PID != 4242 {
		t.Fatalf("control error: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "stop") {
		t.Fatal("error text")
	}
}

func TestSnapshotRenderShowsGenealogy(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	root, _ := sess.Run("vax1", "make")
	_, _ = sess.RunChild("vax2", "cc1", root)
	_, _ = sess.RunChild("vax2", "cc2", root)
	_ = c.Advance(time.Second)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := snap.Render()
	for _, want := range []string{"make", "cc1", "cc2", "<vax2,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if snap.IsForest() {
		t.Fatalf("should be one tree:\n%s", out)
	}
}

func TestBroadcastStopAll(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	r, _ := sess.Run("vax1", "a")
	_, _ = sess.RunChild("vax2", "b", r)
	_, _ = sess.RunChild("vax2", "c", r)
	n, err := sess.StopAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("stopped %d, want 3", n)
	}
	n, err = sess.ContinueAll()
	if err != nil || n != 3 {
		t.Fatalf("continued %d err=%v", n, err)
	}
	n, err = sess.KillAll()
	if err != nil || n != 3 {
		t.Fatalf("killed %d err=%v", n, err)
	}
}

func TestStatsOfExitedRemoteProcess(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	id, _ := sess.Run("vax2", "job")
	_ = c.Advance(300 * time.Millisecond)
	k, _ := c.Kernel("vax2")
	_ = k.Syscall(id.PID, "read")
	if err := sess.Kill(id); err != nil {
		t.Fatal(err)
	}
	info, err := sess.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != proc.Exited || info.Rusage.Syscalls == 0 {
		t.Fatalf("stats: %+v", info)
	}
}

func TestOpenFilesRemote(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	id, _ := sess.Run("vax2", "job")
	_ = c.Advance(300 * time.Millisecond)
	k, _ := c.Kernel("vax2")
	if _, err := k.OpenFD(id.PID, "/var/log/x"); err != nil {
		t.Fatal(err)
	}
	open, err := sess.OpenFiles(id)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(open, " ")
	if !strings.Contains(joined, "/var/log/x") {
		t.Fatalf("open files: %v", open)
	}
}

func TestHistoryAndWatch(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	fired := 0
	remove := sess.OnEvent(&ppm.Watch{
		Kind:   proc.EvStop,
		Action: func(ppm.Event) { fired++ },
	})
	id, _ := sess.Run("vax1", "job")
	_ = sess.Stop(id)
	_ = c.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("watch fired %d times, want 1", fired)
	}
	remove()
	_ = sess.Foreground(id)
	_ = sess.Stop(id)
	_ = c.Advance(time.Second)
	if fired != 1 {
		t.Fatal("removed watch still firing")
	}
	evs, err := sess.History(ppm.HistoryQuery{Proc: id})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 2 {
		t.Fatalf("history too short: %d", len(evs))
	}
}

func TestAdoptAndTraceMask(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	k, _ := c.Kernel("vax1")
	p, err := k.Spawn("external", "felipe")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Adopt(p.PID); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetTraceMask(p.PID, ppm.TraceAll); err != nil {
		t.Fatal(err)
	}
	// Syscall events now recorded at the finest granularity.
	_ = k.Syscall(p.PID, "read")
	_ = c.Advance(time.Second)
	evs, _ := sess.History(ppm.HistoryQuery{Kinds: []proc.EventKind{proc.EvSyscall}})
	if len(evs) != 1 {
		t.Fatalf("syscall events = %d, want 1", len(evs))
	}
}

func TestElapsedMeasuresVirtualTime(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	d, err := sess.Elapsed(func() error {
		_, err := sess.Run("vax1", "job")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if d < 95*time.Millisecond || d > 105*time.Millisecond {
		t.Fatalf("local create elapsed %v, want ~99ms", d)
	}
}

func TestCrashAndPartialSnapshot(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	r, _ := sess.Run("vax1", "root")
	_, _ = sess.RunChild("vax2", "doomed", r)
	_ = c.Advance(time.Second)
	if err := c.Crash("vax2"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(5 * time.Second)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Partial) != 1 || snap.Partial[0] != "vax2" {
		t.Fatalf("partial = %v", snap.Partial)
	}
	if !strings.Contains(snap.Render(), "partial") {
		t.Fatal("render should note the partial snapshot")
	}
	auditClean(t, c)
}

func TestRestartAfterCrash(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	_, _ = sess.Run("vax2", "victim")
	_ = c.Advance(time.Second)
	if err := c.Crash("vax2"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(5 * time.Second)
	if err := c.Restart("vax2"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(time.Second)
	// The restarted host serves fresh work.
	id, err := sess.Run("vax2", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if id.Host != "vax2" {
		t.Fatal("create on restarted host failed")
	}
	auditClean(t, c)
}

func TestRecoveryListFailover(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	c.SetRecoveryList("felipe", "a", "b", "c")
	sess, err := c.Attach("felipe", "a")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sess.Run("a", "root")
	_, _ = sess.RunChild("b", "wb", r)
	_ = c.Advance(2 * time.Second)
	lb, ok := c.ManagerOn("b", "felipe")
	if !ok {
		t.Fatal("no LPM on b")
	}
	if lb.Recovery().CCS() != "a" {
		t.Fatalf("ccs = %q, want a", lb.Recovery().CCS())
	}
	_ = c.Crash("a")
	_ = c.Advance(2 * time.Minute)
	if !lb.Recovery().IsCCS() {
		t.Fatalf("b should be CCS after a's crash (ccs=%q)", lb.Recovery().CCS())
	}
	auditClean(t, c)
}

func TestMixedHostTypes(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{
			{Name: "vax1", Type: ppm.VAX780},
			{Name: "sun1", Type: ppm.SunII},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sessVAX, _ := c.Attach("felipe", "vax1")
	dVAX, err := sessVAX.Elapsed(func() error {
		_, err := sessVAX.Run("vax1", "job")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sessSun, err := c.Attach("felipe", "sun1")
	if err != nil {
		t.Fatal(err)
	}
	dSun, err := sessSun.Elapsed(func() error {
		_, err := sessSun.Run("sun1", "job")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if dSun <= dVAX {
		t.Fatalf("Sun II (%v) should be slower than VAX 780 (%v)", dSun, dVAX)
	}
}

func TestBackgroundLoadRaisesLoadAverage(t *testing.T) {
	c := twoHostCluster(t)
	if err := c.SpawnBackgroundLoad("vax1", "felipe", 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(30 * time.Second)
	la, err := c.LoadAvg("vax1")
	if err != nil {
		t.Fatal(err)
	}
	if la < 2.5 {
		t.Fatalf("la = %.2f, want ~3", la)
	}
}

func TestGatewayTopology(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "gw"}, {Name: "b"}},
		Segments: map[string][]string{
			"net1": {"a", "gw"},
			"net2": {"gw", "b"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, _ := c.Attach("felipe", "a")
	id, err := sess.Run("b", "far-job") // two hops away
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(time.Second)
	// Two-hop control costs ~210ms (Table 2).
	d, err := sess.Elapsed(func() error { return sess.Stop(id) })
	if err != nil {
		t.Fatal(err)
	}
	if d < 205*time.Millisecond || d > 218*time.Millisecond {
		t.Fatalf("two-hop stop took %v, want ~210ms", d)
	}
}

func TestAttachAtFormsChains(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sa, _ := c.Attach("felipe", "a")
	_, _ = sa.Run("b", "on-b")
	sb, err := sa.AttachAt("b")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = sb.Run("c", "on-c")
	_ = c.Advance(time.Second)
	// a has no direct circuit to c, yet the snapshot covers c.
	var st status.Report
	sa.Manager().BuildStatus(&st)
	for _, circ := range st.Circuits {
		if circ.Peer == "c" {
			t.Fatal("setup: a should not know c directly")
		}
	}
	snap, err := sa.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hosts := snap.Hosts()
	found := false
	for _, h := range hosts {
		if h == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("chain snapshot missed c: %v", hosts)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := ppm.NewCluster(ppm.ClusterConfig{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "a"}},
	}); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestLaunchConfigPlan(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "vax1"}, {Name: "vax2"}, {Name: "sun1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, err := c.Attach("felipe", "vax1")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := sess.Launch(`
computation build
proc coord on vax1 trace all
proc split on vax1 parent coord
proc cc1   on vax2 parent split
proc cc2   on sun1 parent split
watch exit of cc1 do signal coord SIGUSR1
`)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	if len(comp.Names()) != 4 {
		t.Fatalf("names = %v", comp.Names())
	}
	_ = c.Advance(time.Second)

	// The genealogy matches the declaration.
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := comp.Lookup("coord")
	split, _ := comp.Lookup("split")
	cc1, _ := comp.Lookup("cc1")
	info, ok := snap.Find(cc1)
	if !ok || info.Parent != split {
		t.Fatalf("cc1 info = %+v ok=%v", info, ok)
	}
	if kids := snap.Children(coord); len(kids) != 1 {
		t.Fatalf("coord children = %d", len(kids))
	}

	// cc1 exiting triggers the declared watch even though cc1 is
	// remote: its exit event lands at vax2's LPM, which forwards it
	// to the home LPM (vax1) over sibling RPC, where the declared
	// watch fires and signals coord.
	k2, _ := c.Kernel("vax2")
	_ = k2.Exit(cc1.PID, 0)
	_ = c.Advance(time.Second)
	notes := comp.Notes()
	if len(notes) == 0 {
		t.Fatal("remote exit never fired the home-declared watch")
	}
	if !strings.Contains(notes[0], "signalled coord") {
		t.Fatalf("unexpected notes: %v", notes)
	}

	// A local process exiting does fire the equivalent local watch.
	comp2, err := sess.Launch(`
proc local on vax1
watch exit of local do note local done
`)
	if err != nil {
		t.Fatal(err)
	}
	defer comp2.Close()
	local, _ := comp2.Lookup("local")
	k1, _ := c.Kernel("vax1")
	_ = k1.Exit(local.PID, 0)
	_ = c.Advance(time.Second)
	notes2 := comp2.Notes()
	if len(notes2) != 1 || !strings.Contains(notes2[0], "local done") {
		t.Fatalf("notes = %v", notes2)
	}
}

func TestLaunchBadPlan(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	if _, err := sess.Launch("proc a on vax1 parent ghost"); err == nil {
		t.Fatal("bad plan accepted")
	}
	if _, err := sess.Launch("proc a on nowhere"); err == nil {
		t.Fatal("plan with unknown host should fail at instantiation")
	}
}

func TestSupervisorRestartsCrashedWorker(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "home"}, {Name: "w1"}, {Name: "w2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, err := c.Attach("felipe", "home")
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Run("w1", "worker")
	if err != nil {
		t.Fatal(err)
	}
	sup := sess.NewSupervisor(2 * time.Second)
	sup.Supervise(ppm.SuperviseSpec{
		Name:   "worker",
		Hosts:  []string{"w1", "w2"},
		Policy: ppm.RestartAlways,
	}, id)
	sup.Start()
	defer sup.Stop()
	_ = c.Advance(5 * time.Second)
	if sup.Restarts != 0 {
		t.Fatalf("healthy worker restarted: %v", sup.Events)
	}

	// The worker is killed: the supervisor notices via snapshot and
	// restarts it on the same host.
	k, _ := c.Kernel("w1")
	if err := k.Signal(id.PID, ppm.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(10 * time.Second)
	if sup.Restarts != 1 {
		t.Fatalf("restarts = %d, events=%v", sup.Restarts, sup.Events)
	}
	cur, _ := sup.Current("worker")
	if cur.Host != "w1" || cur == id {
		t.Fatalf("current = %v", cur)
	}

	// The whole host crashes: the supervisor fails over to w2.
	if err := c.Crash("w1"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(30 * time.Second)
	cur, _ = sup.Current("worker")
	if cur.Host != "w2" {
		t.Fatalf("failover landed on %q; events=%v", cur.Host, sup.Events)
	}
	// And the replacement is genuinely alive and adopted.
	k2, _ := c.Kernel("w2")
	p, err := k2.Lookup(cur.PID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Running || !p.Traced {
		t.Fatalf("replacement: %+v", p)
	}
}

func TestCCSNameServerCoordinatesAssignment(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:         []ppm.HostSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		CCSNameServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sa, err := c.Attach("felipe", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Manager().Recovery().IsCCS() {
		t.Fatal("first LPM should be the CCS")
	}
	// A later LPM on another host, with no circuits yet and no
	// .recovery file, learns the CCS from the name server.
	sb, err := c.Attach("felipe", "b")
	if err != nil {
		t.Fatal(err)
	}
	if sb.Manager().Recovery().CCS() != "a" {
		t.Fatalf("b's ccs = %q, want the registered a", sb.Manager().Recovery().CCS())
	}
	// Without any circuit to a, b cannot detect a's failures — the
	// name server only coordinates assignment; failure detection still
	// rides the sibling circuits (tested in
	// TestCCSNameServerWithListFailover).
	sc, err := c.Attach("felipe", "c")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manager().Recovery().CCS() != "a" {
		t.Fatal("every new LPM should adopt the registered CCS")
	}
}

func TestCCSNameServerWithListFailover(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:         []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
		CCSNameServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	c.SetRecoveryList("felipe", "a", "b")
	sa, err := c.Attach("felipe", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Run("b", "job"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(time.Second)
	if err := c.Crash("a"); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(2 * time.Minute)
	lb, ok := c.ManagerOn("b", "felipe")
	if !ok {
		t.Fatal("b's LPM gone")
	}
	if !lb.Recovery().IsCCS() {
		t.Fatalf("b should be CCS (ccs=%q state=%v)", lb.Recovery().CCS(), lb.Recovery().State())
	}
	// The takeover was registered: a fresh LPM learns b immediately.
	sc, err := c.Attach("felipe", "b")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Manager().Recovery().CCS() != "b" {
		t.Fatal("name server registration not updated after failover")
	}
}

func TestComputationSubtreeAndRemoteHistory(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, _ := c.Attach("felipe", "a")
	// Two independent computations.
	build, _ := sess.Run("a", "build")
	_, _ = sess.RunChild("b", "cc", build)
	simRoot, _ := sess.Run("a", "sim")
	_, _ = sess.RunChild("b", "sim-worker", simRoot)
	_ = c.Advance(time.Second)

	comp, err := sess.Computation(build)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Procs) != 2 {
		t.Fatalf("build computation = %d procs:\n%s", len(comp.Procs), comp.Render())
	}
	if _, ok := comp.Find(simRoot); ok {
		t.Fatal("other computation leaked into the subtree")
	}

	// The remote worker's lifecycle lives in b's LPM trace, queryable
	// from a.
	wb, _ := comp.Find(build)
	_ = wb
	var remoteID ppm.GPID
	for _, p := range comp.Procs {
		if p.ID.Host == "b" {
			remoteID = p.ID
		}
	}
	if err := sess.Stop(remoteID); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(time.Second)
	evs, err := sess.HistoryOn("b", ppm.HistoryQuery{Proc: remoteID})
	if err != nil {
		t.Fatal(err)
	}
	foundStop := false
	for _, ev := range evs {
		if ev.Kind == proc.EvStop {
			foundStop = true
		}
	}
	if !foundStop {
		t.Fatalf("remote history missing the stop event: %+v", evs)
	}
	// The home trace does NOT contain it (per-LPM histories).
	local, err := sess.History(ppm.HistoryQuery{Proc: remoteID})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range local {
		if ev.Kind == proc.EvStop {
			t.Fatal("home LPM recorded a remote kernel event")
		}
	}
}

func TestRemoteWatchTriggersCrossHostAction(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, _ := c.Attach("felipe", "a")
	sentinel, _ := sess.Run("b", "sentinel")
	reactor, _ := sess.Run("a", "reactor")
	_ = c.Advance(time.Second)

	// When the sentinel on b exits, stop the reactor on a: the event is
	// observed by b's LPM, the action crosses back to a.
	remove, err := sess.OnEventAt("b", &ppm.Watch{
		Kind: proc.EvExit,
		Proc: sentinel,
	}, ppm.OpStop, 0, reactor)
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := c.Kernel("b")
	if err := kb.Exit(sentinel.PID, 0); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(2 * time.Second)
	ka, _ := c.Kernel("a")
	p, err := ka.Lookup(reactor.PID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Stopped {
		t.Fatalf("reactor state = %v, want stopped by the remote watch", p.State)
	}

	// Removal: further matching events take no action.
	remove()
	_ = c.Advance(time.Second)
	if err := sess.Foreground(reactor); err != nil {
		t.Fatal(err)
	}
	w2, _ := sess.Run("b", "sentinel2")
	_ = c.Advance(time.Second)
	if err := kb.Exit(w2.PID, 0); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(2 * time.Second)
	p, _ = ka.Lookup(reactor.PID)
	if p.State != proc.Running {
		t.Fatal("removed remote watch still firing")
	}
}

func TestRemoteWatchLocalAction(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	sess, _ := c.Attach("felipe", "a")
	boss, _ := sess.Run("b", "boss")
	minion, _ := sess.RunChild("b", "minion", boss)
	_ = c.Advance(time.Second)

	// When the boss exits, kill the minion — both on b; the action is
	// applied locally by b's LPM.
	if _, err := sess.OnEventAt("b", &ppm.Watch{
		Kind: proc.EvExit,
		Proc: boss,
	}, ppm.OpKill, 0, minion); err != nil {
		t.Fatal(err)
	}
	kb, _ := c.Kernel("b")
	if err := kb.Exit(boss.PID, 0); err != nil {
		t.Fatal(err)
	}
	_ = c.Advance(2 * time.Second)
	p, err := kb.Lookup(minion.PID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Exited {
		t.Fatalf("minion state = %v, want exited", p.State)
	}
}

func TestLocateFindsByNameAcrossHosts(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	_, _ = sess.Run("vax1", "worker")
	_, _ = sess.Run("vax2", "worker")
	_, _ = sess.Run("vax2", "other")
	_ = c.Advance(time.Second)
	ids, err := sess.Locate("worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("located %v", ids)
	}
	hosts := map[string]bool{}
	for _, id := range ids {
		hosts[id.Host] = true
	}
	if !hosts["vax1"] || !hosts["vax2"] {
		t.Fatalf("located on %v", hosts)
	}
	none, _ := sess.Locate("ghost")
	if len(none) != 0 {
		t.Fatal("phantom locate")
	}
}

func TestPublicDisplayHelpers(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	id, _ := sess.Run("vax1", "job")
	_ = sess.Stop(id)
	_ = c.Advance(time.Second)
	snap, _ := sess.Snapshot()
	if !strings.Contains(ppm.FormatSnapshotTable(snap), "stopped") {
		t.Fatal("table helper broken")
	}
	info, _ := sess.Stats(id)
	if !strings.Contains(ppm.FormatStats(info), "job") {
		t.Fatal("stats helper broken")
	}
	if !strings.Contains(ppm.FormatStatsTable(snap.Procs), "job") {
		t.Fatal("stats table helper broken")
	}
	evs, _ := sess.History(ppm.HistoryQuery{})
	if !strings.Contains(ppm.FormatTimeline(evs), "stop") {
		t.Fatal("timeline helper broken")
	}
	if out := ppm.FormatIPC(ppm.AnalyzeIPC(evs)); out == "" {
		t.Fatal("ipc helpers broken")
	}
	open, _ := sess.OpenFiles(id)
	if !strings.Contains(ppm.FormatFDs(id, open), "tty") {
		t.Fatal("fd helper broken")
	}
}
