package kernel

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ppm/internal/calib"
	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/sim"
)

func newHost(t *testing.T) (*sim.Scheduler, *Host) {
	t.Helper()
	s := sim.NewScheduler(1)
	return s, NewHost(s, "vax1", calib.ModelVAX780)
}

func TestSpawnAndLookup(t *testing.T) {
	_, h := newHost(t)
	p, err := h.Spawn("sh", "felipe")
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != 1 || p.State != proc.Running || p.User != "felipe" {
		t.Fatalf("spawned %+v", p)
	}
	got, err := h.Lookup(p.PID)
	if err != nil || got != p {
		t.Fatal("lookup failed")
	}
	if _, err := h.Lookup(999); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestForkInheritsUserTraceAndFDs(t *testing.T) {
	_, h := newHost(t)
	parent, _ := h.Spawn("sh", "felipe")
	if err := h.Adopt(parent.PID, "felipe"); err != nil {
		t.Fatal(err)
	}
	fd, err := h.OpenFD(parent.PID, "/tmp/x")
	if err != nil {
		t.Fatal(err)
	}
	child, err := h.Fork(parent.PID, "worker")
	if err != nil {
		t.Fatal(err)
	}
	if child.User != "felipe" || !child.Traced || child.Mask != TraceDefault {
		t.Fatalf("child did not inherit: %+v", child)
	}
	if child.PPID != parent.PID || child.Parent != (proc.GPID{Host: "vax1", PID: parent.PID}) {
		t.Fatalf("parentage wrong: %+v", child)
	}
	found := false
	for _, s := range child.OpenFDs() {
		if s == "3:/tmp/x" {
			found = true
		}
	}
	if !found {
		t.Fatalf("child fds = %v, want inherited fd %d", child.OpenFDs(), fd)
	}
}

func TestForkFromDeadFails(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("sh", "felipe")
	_ = h.Exit(p.PID, 0)
	if _, err := h.Fork(p.PID, "x"); !errors.Is(err, ErrDead) {
		t.Fatalf("err = %v", err)
	}
}

func TestExitRetainsRecordUntilReap(t *testing.T) {
	s, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.Exit(p.PID, 3); err != nil {
		t.Fatal(err)
	}
	got, err := h.Lookup(p.PID)
	if err != nil {
		t.Fatal("exited process should remain visible")
	}
	if got.State != proc.Exited || got.ExitCode != 3 || got.ExitedAt != sim.Time(time.Second) {
		t.Fatalf("exit record: %+v", got)
	}
	if err := h.Exit(p.PID, 0); !errors.Is(err, ErrDead) {
		t.Fatal("double exit should fail")
	}
	if err := h.Reap(p.PID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Lookup(p.PID); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatal("reaped process still visible")
	}
}

func TestReapLiveProcessRejected(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := h.Reap(p.PID); !errors.Is(err, ErrPermission) {
		t.Fatalf("err = %v", err)
	}
}

func TestSignalSemantics(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := h.Signal(p.PID, proc.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Stopped {
		t.Fatalf("state = %v, want stopped", p.State)
	}
	if err := h.Signal(p.PID, proc.SIGCONT); err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Running {
		t.Fatalf("state = %v, want running", p.State)
	}
	if err := h.Signal(p.PID, proc.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Running {
		t.Fatal("user signal should not change state")
	}
	if err := h.Signal(p.PID, proc.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if p.State != proc.Exited || p.ExitCode != 128+int(proc.SIGKILL) {
		t.Fatalf("killed: %+v", p)
	}
	if err := h.Signal(p.PID, proc.SIGCONT); !errors.Is(err, ErrDead) {
		t.Fatal("signal to exited process should fail")
	}
}

func TestAdoptPermissions(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := h.Adopt(p.PID, "mallory"); !errors.Is(err, ErrPermission) {
		t.Fatalf("cross-user adoption: %v", err)
	}
	if err := h.Adopt(p.PID, "felipe"); err != nil {
		t.Fatal(err)
	}
	if !p.Traced || p.Mask != TraceDefault {
		t.Fatalf("adoption flags: %+v", p)
	}
}

func TestAdoptExitedFails(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	_ = h.Exit(p.PID, 0)
	if err := h.Adopt(p.PID, "felipe"); !errors.Is(err, ErrDead) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetTraceMask(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := h.SetTraceMask(p.PID, "felipe", TraceAll); !errors.Is(err, ErrPermission) {
		t.Fatal("mask on unadopted process should fail")
	}
	_ = h.Adopt(p.PID, "felipe")
	if err := h.SetTraceMask(p.PID, "mallory", TraceAll); !errors.Is(err, ErrPermission) {
		t.Fatal("cross-user mask should fail")
	}
	if err := h.SetTraceMask(p.PID, "felipe", TraceAll); err != nil {
		t.Fatal(err)
	}
	if p.Mask != TraceAll {
		t.Fatal("mask not applied")
	}
}

func collectEvents(h *Host, user string) *[]proc.Event {
	var evs []proc.Event
	h.SetEventSink(user, func(ev proc.Event) { evs = append(evs, ev) })
	return &evs
}

func TestEventsDeliveredForTracedOnly(t *testing.T) {
	s, h := newHost(t)
	evs := collectEvents(h, "felipe")
	traced, _ := h.Spawn("traced", "felipe")
	plain, _ := h.Spawn("plain", "felipe")
	_ = h.Adopt(traced.PID, "felipe")
	_, _ = h.Fork(traced.PID, "child")
	_, _ = h.Fork(plain.PID, "child") // untraced: no event
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if len(*evs) != 1 || (*evs)[0].Kind != proc.EvFork {
		t.Fatalf("events = %+v, want one fork", *evs)
	}
	if (*evs)[0].Proc != (proc.GPID{Host: "vax1", PID: traced.PID}) {
		t.Fatal("event for wrong process")
	}
}

func TestEventGranularityMask(t *testing.T) {
	s, h := newHost(t)
	evs := collectEvents(h, "felipe")
	p, _ := h.Spawn("job", "felipe")
	_ = h.Adopt(p.PID, "felipe")
	// Default mask excludes syscalls and files.
	_ = h.Syscall(p.PID, "read")
	_, _ = h.OpenFD(p.PID, "/tmp/x")
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if len(*evs) != 0 {
		t.Fatalf("default mask leaked events: %+v", *evs)
	}
	// Full granularity reports both.
	_ = h.SetTraceMask(p.PID, "felipe", TraceAll)
	_ = h.Syscall(p.PID, "read")
	_, _ = h.OpenFD(p.PID, "/tmp/y")
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if len(*evs) != 2 {
		t.Fatalf("TraceAll events = %+v", *evs)
	}
}

func TestEventDeliveryLatencyAtZeroLoad(t *testing.T) {
	s, h := newHost(t)
	var deliveredAt sim.Time
	h.SetEventSink("felipe", func(proc.Event) { deliveredAt = s.Now() })
	p, _ := h.Spawn("job", "felipe")
	_ = h.Adopt(p.PID, "felipe")
	sentAt := s.Now()
	_ = h.Signal(p.PID, proc.SIGSTOP)
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	lat := deliveredAt.Sub(sentAt)
	// Zero load: MsgBase of the VAX 780 (about 6.1 ms).
	if lat < 5*time.Millisecond || lat > 8*time.Millisecond {
		t.Fatalf("zero-load delivery = %v, want ~6.1ms", lat)
	}
}

func TestUntracedSyscallCountsCheckOnly(t *testing.T) {
	_, h := newHost(t)
	reg := metrics.New(nil)
	h.SetRecorder(journal.NewRecorder(reg, nil, nil))
	p, _ := h.Spawn("job", "felipe")
	for i := 0; i < 10; i++ {
		_ = h.Syscall(p.PID, "read")
	}
	if h.UntracedChecks != 10 {
		t.Fatalf("checks = %d, want 10", h.UntracedChecks)
	}
	if n := reg.Snapshot().CounterSum("kernel.events."); n != 0 {
		t.Fatalf("untraced syscalls sent %d kernel messages", n)
	}
}

func TestLoadAverageConvergesToWorkload(t *testing.T) {
	s, h := newHost(t)
	// Three always-on workloads: run queue is 3.
	for i := 0; i < 3; i++ {
		if _, err := h.SpawnWorkload("hog", "felipe", 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	la := h.LoadAvg()
	if la < 2.6 || la > 3.2 {
		t.Fatalf("la = %.2f, want ~3", la)
	}
}

func TestDutyCycledWorkloadHalvesLoad(t *testing.T) {
	s, h := newHost(t)
	for i := 0; i < 3; i++ {
		if _, err := h.SpawnWorkload("hog", "felipe", 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	la := h.LoadAvg()
	if la < 1.0 || la > 2.0 {
		t.Fatalf("la = %.2f, want ~1.5", la)
	}
}

func TestWorkloadBadDutyRejected(t *testing.T) {
	_, h := newHost(t)
	if _, err := h.SpawnWorkload("hog", "u", 2, 1); err == nil {
		t.Fatal("duty > 1 accepted")
	}
	if _, err := h.SpawnWorkload("hog", "u", 1, 0); err == nil {
		t.Fatal("zero denominator accepted")
	}
}

func TestStoppedWorkloadLeavesRunQueue(t *testing.T) {
	s, h := newHost(t)
	p, _ := h.SpawnWorkload("hog", "felipe", 1, 1)
	if err := s.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.LoadAvg() < 0.8 {
		t.Fatalf("la = %.2f before stop", h.LoadAvg())
	}
	_ = h.Signal(p.PID, proc.SIGSTOP)
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.LoadAvg() > 0.2 {
		t.Fatalf("la = %.2f after stop, want ~0", h.LoadAvg())
	}
}

func TestDeliveryLatencyGrowsWithLoad(t *testing.T) {
	s, h := newHost(t)
	idle := h.MeasureDelivery()
	for i := 0; i < 5; i++ {
		_, _ = h.SpawnWorkload("hog", "felipe", 1, 1)
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	loaded := h.MeasureDelivery()
	if loaded <= idle {
		t.Fatalf("delivery idle=%v loaded=%v, want growth", idle, loaded)
	}
}

func TestExecCPUSerializes(t *testing.T) {
	s, h := newHost(t)
	var doneA, doneB sim.Time
	h.ExecCPU(10*time.Millisecond, func() { doneA = s.Now() })
	h.ExecCPU(10*time.Millisecond, func() { doneB = s.Now() })
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if doneA != sim.Time(10*time.Millisecond) {
		t.Fatalf("A done at %v", doneA)
	}
	if doneB != sim.Time(20*time.Millisecond) {
		t.Fatalf("B done at %v, want serialized 20ms", doneB)
	}
}

func TestExecCPUSlowerOnSun(t *testing.T) {
	s := sim.NewScheduler(1)
	vax := NewHost(s, "vax", calib.ModelVAX780)
	sun := NewHost(s, "sun", calib.ModelSunII)
	var vaxDone, sunDone sim.Time
	vax.ExecCPU(10*time.Millisecond, func() { vaxDone = s.Now() })
	sun.ExecCPU(10*time.Millisecond, func() { sunDone = s.Now() })
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if sunDone <= vaxDone {
		t.Fatalf("sun=%v vax=%v, Sun II should be slower", sunDone, vaxDone)
	}
}

func TestProcessesOfSortedAndFiltered(t *testing.T) {
	_, h := newHost(t)
	_, _ = h.Spawn("a", "felipe")
	_, _ = h.Spawn("x", "other")
	_, _ = h.Spawn("b", "felipe")
	got := h.ProcessesOf("felipe")
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("got %+v", got)
	}
	for _, p := range got {
		if p.User != "felipe" {
			t.Fatal("foreign process leaked")
		}
	}
}

func TestLiveCountAndKillAll(t *testing.T) {
	_, h := newHost(t)
	a, _ := h.Spawn("a", "felipe")
	_, _ = h.Spawn("b", "felipe")
	_, _ = h.Spawn("x", "other")
	_ = h.Signal(a.PID, proc.SIGSTOP) // stopped still counts as live
	if n := h.LiveCount("felipe"); n != 2 {
		t.Fatalf("live = %d, want 2", n)
	}
	if n := h.KillAll("felipe"); n != 2 {
		t.Fatalf("killed = %d, want 2", n)
	}
	if n := h.LiveCount("felipe"); n != 0 {
		t.Fatalf("live after KillAll = %d", n)
	}
	if n := h.LiveCount("other"); n != 1 {
		t.Fatal("KillAll must not touch other users")
	}
}

func TestCrashDropsEverythingSilently(t *testing.T) {
	s, h := newHost(t)
	evs := collectEvents(h, "felipe")
	p, _ := h.Spawn("job", "felipe")
	_ = h.Adopt(p.PID, "felipe")
	h.Crash()
	if h.Up() {
		t.Fatal("host should be down")
	}
	if _, err := h.Lookup(p.PID); err == nil {
		t.Fatal("process survived crash")
	}
	if _, err := h.Spawn("x", "felipe"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("spawn on dead host: %v", err)
	}
	if err := s.RunUntilIdle(100000); err != nil {
		t.Fatal(err)
	}
	if len(*evs) != 0 {
		t.Fatal("crash emitted events")
	}
}

func TestRestartBootsClean(t *testing.T) {
	s, h := newHost(t)
	_, _ = h.Spawn("job", "felipe")
	h.Crash()
	h.Restart()
	if !h.Up() {
		t.Fatal("host should be up")
	}
	p, err := h.Spawn("fresh", "felipe")
	if err != nil {
		t.Fatal(err)
	}
	if p.PID == 1 {
		// PIDs continue; either behaviour is fine, but the table must
		// contain only the fresh process.
		t.Log("pid counter restarted")
	}
	if n := len(h.ProcessesOf("felipe")); n != 1 {
		t.Fatalf("process table after restart: %d entries", n)
	}
	// Load sampling resumes.
	_, _ = h.SpawnWorkload("hog", "felipe", 1, 1)
	if err := s.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.LoadAvg() < 0.5 {
		t.Fatalf("load sampler did not resume: la=%.2f", h.LoadAvg())
	}
}

func TestExecRename(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("sh", "felipe")
	if err := h.Exec(p.PID, "a.out"); err != nil {
		t.Fatal(err)
	}
	if p.Name != "a.out" {
		t.Fatalf("name = %q", p.Name)
	}
	_ = h.Exit(p.PID, 0)
	if err := h.Exec(p.PID, "b.out"); !errors.Is(err, ErrDead) {
		t.Fatal("exec on exited process should fail")
	}
}

func TestFDLifecycle(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("sh", "felipe")
	fd, err := h.OpenFD(p.PID, "/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CloseFD(p.PID, fd); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseFD(p.PID, fd); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestAccountIPC(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("sh", "felipe")
	h.AccountIPC(p.PID, 2, 3, "circuit")
	if p.Rusage.MsgsSent != 2 || p.Rusage.MsgsRecv != 3 {
		t.Fatalf("rusage = %+v", p.Rusage)
	}
	h.AccountIPC(999, 1, 1, "nobody") // silently ignored
}

func TestSetLogicalParent(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("remote-child", "felipe")
	want := proc.GPID{Host: "othervax", PID: 7}
	if err := h.SetLogicalParent(p.PID, want); err != nil {
		t.Fatal(err)
	}
	if p.Parent != want {
		t.Fatalf("parent = %v", p.Parent)
	}
	info, _ := h.Info(p.PID)
	if info.Parent != want {
		t.Fatal("info does not reflect logical parent")
	}
}

func TestSetForeground(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if err := h.SetForeground(p.PID, true); err != nil {
		t.Fatal(err)
	}
	if !p.Foreground {
		t.Fatal("not foreground")
	}
}

func TestForegroundGroupSingleOccupant(t *testing.T) {
	_, h := newHost(t)
	a, _ := h.Spawn("a", "felipe")
	b, _ := h.Spawn("b", "felipe")
	x, _ := h.Spawn("x", "other")
	if err := h.SetForeground(a.PID, true); err != nil {
		t.Fatal(err)
	}
	if err := h.SetForeground(x.PID, true); err != nil {
		t.Fatal(err)
	}
	// Raising b demotes a, but not the other user's foreground process.
	if err := h.SetForeground(b.PID, true); err != nil {
		t.Fatal(err)
	}
	if a.Foreground {
		t.Fatal("a should have been demoted")
	}
	if !b.Foreground || !x.Foreground {
		t.Fatal("b and x should be foreground")
	}
	fg, ok := h.Foreground("felipe")
	if !ok || fg.PID != b.PID {
		t.Fatalf("Foreground = %+v ok=%v", fg, ok)
	}
	_ = h.Signal(b.PID, proc.SIGKILL)
	if _, ok := h.Foreground("felipe"); ok {
		t.Fatal("dead process still reported foreground")
	}
}

func TestRSSModelGrowsAndCaps(t *testing.T) {
	_, h := newHost(t)
	p, _ := h.Spawn("job", "felipe")
	if p.Rusage.MaxRSSKB != 64 {
		t.Fatalf("base image = %d KB", p.Rusage.MaxRSSKB)
	}
	child, _ := h.Fork(p.PID, "kid")
	if child.Rusage.MaxRSSKB != 64 {
		t.Fatal("fork should copy the parent image size")
	}
	_, _ = h.OpenFD(p.PID, "/f")
	if p.Rusage.MaxRSSKB != 72 {
		t.Fatalf("rss after open = %d", p.Rusage.MaxRSSKB)
	}
	for i := 0; i < 10000; i++ {
		_ = h.Syscall(p.PID, "brk")
	}
	if p.Rusage.MaxRSSKB != 1024 {
		t.Fatalf("rss should cap at 1024, got %d", p.Rusage.MaxRSSKB)
	}
}

// CPU work queued by one boot must not complete on the next: the
// software that queued it died in the crash.
func TestExecCPUDoesNotSurviveCrash(t *testing.T) {
	s, h := newHost(t)
	ran := false
	h.ExecCPU(40*time.Millisecond, func() { ran = true })
	s.After(time.Millisecond, h.Crash)
	s.After(2*time.Millisecond, h.Restart)
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("work queued before the crash ran on the restarted host")
	}

	// The interleaving a queue shared across boots gets wrong: the dead
	// boot's work would complete late, the new boot's — its busyUntil
	// starts over — earlier. The dead boot's work must not run, nor
	// drop or delay the new boot's.
	s, h = newHost(t)
	var order []string
	queue := func(name string, cost time.Duration) {
		h.ExecCPU(cost, func() { order = append(order, name+"@"+s.Now().Duration().String()) })
	}
	queue("old-1", 40*time.Millisecond)
	queue("old-2", 40*time.Millisecond)
	s.After(time.Millisecond, h.Crash)
	s.After(2*time.Millisecond, func() {
		h.Restart()
		queue("new-1", time.Millisecond)
		queue("new-2", time.Millisecond)
		queue("new-3", 100*time.Millisecond) // completes after both of the dead boot's events
	})
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "new-1@3ms new-2@4ms new-3@104ms"; got != want {
		t.Fatalf("ran %q across a crash, want %q: each once, in order, on time, the dead boot's never", got, want)
	}
}

// TestExecCPUSteadyStateZeroAllocs: once a boot's queue has grown to the
// depth in use, charging the CPU allocates nothing — no closure per
// charge, no event (the scheduler recycles them), no queue growth.
func TestExecCPUSteadyStateZeroAllocs(t *testing.T) {
	s, h := newHost(t)
	n := 0
	fn := func() { n++ }
	burst := func() {
		for i := 0; i < 8; i++ {
			h.ExecCPU(time.Millisecond, fn)
		}
		if err := s.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("ExecCPU allocates %v times per 8 charges, want 0", allocs)
	}
	if n != 8*102 {
		t.Fatalf("%d of %d charges completed", n, 8*102)
	}
	// A queue that never drains slides down instead of growing for ever.
	for i := 0; i < 4; i++ {
		h.ExecCPU(time.Millisecond, fn)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ExecCPU(time.Millisecond, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("ExecCPU allocates %v times per charge on a queue that stays 4 deep, want 0", allocs)
	}
}

// TestEventDoesNotSurviveCrash: an event whose ~6 ms delivery is still
// in flight when the host crashes belongs to the dead boot; the restarted
// host must not hand it to the sink captured before the crash (the dead
// incarnation's LPM).
func TestEventDoesNotSurviveCrash(t *testing.T) {
	s, h := newHost(t)
	evs := collectEvents(h, "felipe")
	p, _ := h.Spawn("job", "felipe")
	_ = h.Adopt(p.PID, "felipe")
	_ = h.Signal(p.PID, proc.SIGSTOP)
	s.After(time.Millisecond, h.Crash)
	s.After(2*time.Millisecond, h.Restart)
	if err := s.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if len(*evs) != 0 {
		t.Fatalf("events queued before the crash were delivered after the restart: %+v", *evs)
	}
}

// TestEventDeliveryAllocs pins a warm kernel event delivery — emitted
// for a traced process, queued for its Table 1 latency, handed to the
// LPM's sink — at zero allocations: each delivery is a recycled record
// with its callback bound once, not a closure.
func TestEventDeliveryAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops pooled records at random")
			}
		}
	}
	s, h := newHost(t)
	n := 0
	h.SetEventSink("felipe", func(proc.Event) { n++ })
	p, _ := h.Spawn("job", "felipe")
	_ = h.Adopt(p.PID, "felipe")
	ev := proc.Event{Kind: proc.EvStop, Proc: proc.GPID{Host: "vax1", PID: p.PID}}
	burst := func() {
		for i := 0; i < 4; i++ {
			h.emit(p, ev, TraceSignals)
		}
		if err := s.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("delivering 4 events allocates %v times, want 0", allocs)
	}
	if n != 4*102 {
		t.Fatalf("%d of %d events delivered", n, 4*102)
	}
}

// TestObserveEventZeroAllocs pins the per-event observation — the
// recorder's Record reached through the kernel: counter handle, typed
// journal entry — at zero allocations with the registry and the journal
// both wired, and holds an event kind outside proc's table to its own
// counter.
func TestObserveEventZeroAllocs(t *testing.T) {
	s, h := newHost(t)
	reg := metrics.New(func() time.Duration { return s.Now().Duration() })
	j := journal.New(func() time.Duration { return s.Now().Duration() })
	j.SetCapacity(64)
	h.SetRecorder(journal.NewRecorder(reg, nil, j))
	stop := proc.Event{Kind: proc.EvStop, Proc: proc.GPID{Host: "vax1", PID: 12345}}
	odd := proc.Event{Kind: proc.EvClose + 7, Proc: stop.Proc}
	for i := 0; i < 64; i++ {
		h.observeEvent(stop)
	}
	if allocs := testing.AllocsPerRun(200, func() { h.observeEvent(stop) }); allocs != 0 {
		t.Fatalf("observeEvent allocates %v times per event, want 0", allocs)
	}
	recs := j.Records()
	if got, want := recs[len(recs)-1].Detail, "stop proc=<vax1,12345>"; got != want {
		t.Fatalf("detail %q, want %q", got, want)
	}
	h.observeEvent(odd)
	h.observeEvent(odd)
	snap := reg.Snapshot()
	if got := snap.Counter("kernel.events.stop"); got != 64+201 {
		t.Fatalf("kernel.events.stop = %d, want %d", got, 64+201)
	}
	if got := snap.Counter("kernel.events." + odd.Kind.String()); got != 2 {
		t.Fatalf("kernel.events.%s = %d, want 2", odd.Kind, got)
	}
}
