package ppm_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppm"
	"ppm/internal/lpm"
	"ppm/internal/scenario"
	"ppm/internal/tools"
)

func TestClusterErrorPaths(t *testing.T) {
	c := twoHostCluster(t)
	if _, err := c.Kernel("ghost"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("Kernel: %v", err)
	}
	if _, err := c.LoadAvg("ghost"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("LoadAvg: %v", err)
	}
	if err := c.Crash("ghost"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.Restart("ghost"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.Partition([]string{"ghost"}); err == nil {
		t.Fatal("Partition with unknown host accepted")
	}
	if err := c.SpawnBackgroundLoad("ghost", "felipe", 1, 1, 2); err == nil {
		t.Fatal("SpawnBackgroundLoad on unknown host accepted")
	}
	if err := c.SpawnBackgroundLoad("vax1", "felipe", 1, 3, 2); err == nil {
		t.Fatal("bad duty cycle accepted")
	}
	if _, err := c.Processes("ghost", "felipe"); !errors.Is(err, ppm.ErrUnknownHost) {
		t.Fatalf("Processes: %v", err)
	}
}

func TestClusterSettleAndScheduler(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	id, err := sess.Run("vax2", "job")
	if err != nil {
		t.Fatal(err)
	}
	// With no perpetual workloads the world goes quiet... except the
	// LPM TTL timers re-arm; Settle would run virtual decades. Bound it
	// with the scheduler API instead.
	if c.Scheduler() == nil {
		t.Fatal("scheduler not exposed")
	}
	before := c.Now()
	if err := c.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Now().Sub(before) != time.Second {
		t.Fatal("Advance did not advance")
	}
	procs, err := c.Processes("vax2", "felipe")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range procs {
		if p.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("kernel view missing %v: %+v", id, procs)
	}
}

func TestSessionSignalAllAndSignal(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	a, _ := sess.Run("vax1", "a")
	b, _ := sess.Run("vax2", "b")
	if err := sess.Signal(b, ppm.SIGUSR2); err != nil {
		t.Fatal(err)
	}
	n, err := sess.SignalAll(ppm.SIGUSR1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("signalled %d, want 2", n)
	}
	// User signals do not change state.
	snap, _ := sess.Snapshot()
	for _, id := range []ppm.GPID{a, b} {
		info, _ := snap.Find(id)
		if info.State.String() != "running" {
			t.Fatalf("%v state = %v", id, info.State)
		}
	}
	// But they are recorded in the local history for the local process.
	evs, _ := sess.History(ppm.HistoryQuery{Proc: a})
	seen := false
	for _, ev := range evs {
		if ev.Signal == ppm.SIGUSR1 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("SIGUSR1 not in history")
	}
}

// The §7 network trace is a reduction of the cluster's journal: the
// flows of the records appended after a position.
func TestNetworkFlowsFromTheJournal(t *testing.T) {
	c := twoHostCluster(t)
	from := c.Journal().Seq()
	sess, _ := c.Attach("felipe", "vax1")
	if _, err := sess.Run("vax2", "job"); err != nil {
		t.Fatal(err)
	}
	flows, evicted := c.Journal().Flows(from)
	if len(flows) == 0 || evicted != 0 {
		t.Fatalf("flows %+v, %d records evicted", flows, evicted)
	}
	out := tools.FormatFlows(flows, evicted)
	if !strings.Contains(out, "vax1") || !strings.Contains(out, "vax2") {
		t.Fatalf("flow format:\n%s", out)
	}
}

func TestMaxStepsGuardsRunaway(t *testing.T) {
	c, err := ppm.NewCluster(ppm.ClusterConfig{
		Hosts:    []ppm.HostSpec{{Name: "a"}},
		MaxSteps: 3, // absurdly tight: any real operation exceeds it
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddUser("felipe")
	if _, err := c.Attach("felipe", "a"); err == nil {
		t.Fatal("attach should exhaust the 3-step budget")
	}
}

func TestAttachAtUnknownHost(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	if _, err := sess.AttachAt("ghost"); err == nil {
		t.Fatal("AttachAt unknown host accepted")
	}
}

func TestManagerOnExitedLPMNotReturned(t *testing.T) {
	c := twoHostCluster(t)
	sess, _ := c.Attach("felipe", "vax1")
	m, ok := c.ManagerOn("vax1", "felipe")
	if !ok {
		t.Fatal("manager missing")
	}
	m.Exit()
	_ = sess
	if _, ok := c.ManagerOn("vax1", "felipe"); ok {
		t.Fatal("exited manager still returned")
	}
}

// sessionCalls is every Session method that waits on one LPM call.
func sessionCalls(s *ppm.Session, id ppm.GPID) map[string]func() (any, error) {
	only := func(err error) (any, error) { return nil, err }
	return map[string]func() (any, error){
		"Run":          func() (any, error) { return s.Run("vax2", "x") },
		"Stop":         func() (any, error) { return only(s.Stop(id)) },
		"Signal":       func() (any, error) { return only(s.Signal(id, ppm.SIGUSR1)) },
		"StopAll":      func() (any, error) { return s.StopAll() },
		"Snapshot":     func() (any, error) { return s.Snapshot() },
		"Status":       func() (any, error) { return s.Status() },
		"Stats":        func() (any, error) { return s.Stats(id) },
		"OpenFiles":    func() (any, error) { return s.OpenFiles(id) },
		"HistoryOn":    func() (any, error) { return s.HistoryOn("vax2", ppm.HistoryQuery{}) },
		"History":      func() (any, error) { return s.History(ppm.HistoryQuery{}) },
		"Adopt":        func() (any, error) { return only(s.Adopt(id.PID)) },
		"SetTraceMask": func() (any, error) { return only(s.SetTraceMask(id.PID, ppm.TraceAll)) },
		"OnEventAt": func() (any, error) {
			_, err := s.OnEventAt("vax2", &ppm.Watch{Kind: ppm.EvExit}, ppm.OpKill, 0, id)
			return nil, err
		},
	}
}

// Every synchronous method hands back the LPM's own error unchanged:
// an exited manager's ErrExited from all of them, and a timed-out
// sibling request's ErrTimeout from the ones that cross the network.
func TestSessionMethodsReturnTheLPMError(t *testing.T) {
	cfg := ppm.ClusterConfig{Hosts: []ppm.HostSpec{{Name: "vax1"}, {Name: "vax2"}}}
	cfg.LPM.RequestTimeout = 500 * time.Millisecond
	cfg.LPM.Retry.MaxAttempts = -1
	c, sess, err := scenario.Attach(cfg, "felipe", "vax1")
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Run("vax2", "job")
	if err != nil {
		t.Fatal(err)
	}
	calls := sessionCalls(sess, id)
	for _, name := range []string{"Run", "Stop", "Signal", "Stats", "OpenFiles", "HistoryOn", "OnEventAt"} {
		// Re-knit the circuit the last lost reply severed, then lose
		// every reply again: requests still arrive on vax2.
		c.InjectLossDir("vax2", "vax1", 0)
		if err := c.Advance(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Stats(id); err != nil {
			t.Fatalf("warming the circuit before %s: %v", name, err)
		}
		c.InjectLossDir("vax2", "vax1", 1)
		if _, err := calls[name](); !errors.Is(err, lpm.ErrTimeout) {
			t.Errorf("%s with replies lost: %v, want lpm.ErrTimeout", name, err)
		}
	}
	sess.Manager().Exit()
	for name, call := range calls {
		if v, err := call(); !errors.Is(err, lpm.ErrExited) {
			t.Errorf("%s on an exited manager: %v, %v, want lpm.ErrExited", name, v, err)
		}
	}
}

// A call whose callback never runs surfaces ErrStalled and a zero
// value, through the same wait as every other outcome.
func TestStalledOperationSurfacesErrStalled(t *testing.T) {
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: []ppm.HostSpec{{Name: "a"}}}, "felipe", "a")
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Run("a", "job")
	if err != nil {
		t.Fatal(err)
	}
	// The crashed kernel never runs the request; once the orphaned LPM
	// has aged out nothing is left to schedule.
	if err := c.Crash("a"); err != nil {
		t.Fatal(err)
	}
	if info, err := sess.Stats(id); !errors.Is(err, ppm.ErrStalled) || info.ID != (ppm.GPID{}) {
		t.Fatalf("Stats through a crashed home host: %+v, %v, want the zero Info and ErrStalled", info, err)
	}
}
