package recovery

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/sim"
)

// fakeEnv scripts the environment: which hosts are reachable, and what
// the manager did.
type fakeEnv struct {
	sched     *sim.Scheduler
	host      string
	reachable map[string]bool

	probes     []string
	connects   []string
	announced  []string
	terminated bool
}

func (f *fakeEnv) HostName() string { return f.host }

func (f *fakeEnv) After(d time.Duration, fn func()) sim.Timer {
	return f.sched.After(d, fn)
}

func (f *fakeEnv) ProbeHost(host string, cb func(bool)) {
	f.probes = append(f.probes, host)
	ok := f.reachable[host]
	f.sched.After(10*time.Millisecond, func() { cb(ok) })
}

func (f *fakeEnv) ConnectCCS(host string, cb func(bool)) {
	f.connects = append(f.connects, host)
	ok := f.reachable[host]
	f.sched.After(10*time.Millisecond, func() { cb(ok) })
}

func (f *fakeEnv) AnnounceCCS(host string) { f.announced = append(f.announced, host) }
func (f *fakeEnv) TerminateAll()           { f.terminated = true }

func newFake(host string, reachable ...string) *fakeEnv {
	f := &fakeEnv{
		sched:     sim.NewScheduler(1),
		host:      host,
		reachable: make(map[string]bool),
	}
	for _, h := range reachable {
		f.reachable[h] = true
	}
	return f
}

func run(t *testing.T, f *fakeEnv, d time.Duration) {
	t.Helper()
	if err := f.sched.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

func TestInitialSetCCS(t *testing.T) {
	f := newFake("vax2")
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax2"}})
	m.SetCCS("vax1")
	if m.CCS() != "vax1" || m.State() != Normal || m.IsCCS() {
		t.Fatalf("ccs=%q state=%v isccs=%v", m.CCS(), m.State(), m.IsCCS())
	}
}

func TestLostCCSFailsOverToNextOnList(t *testing.T) {
	f := newFake("vax3", "vax2") // vax1 (old CCS) dead, vax2 alive
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax2", "vax3"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.CCS() != "vax2" || m.State() != Normal {
		t.Fatalf("ccs=%q state=%v", m.CCS(), m.State())
	}
	// The walk probed vax1 first (priority order), then vax2.
	if len(f.probes) < 2 || f.probes[0] != "vax1" || f.probes[1] != "vax2" {
		t.Fatalf("probes = %v", f.probes)
	}
	if len(f.announced) != 1 || f.announced[0] != "vax2" {
		t.Fatalf("announced = %v", f.announced)
	}
}

func TestSelfOnListBecomesCCS(t *testing.T) {
	f := newFake("vax2") // nothing reachable
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax2", "vax3"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if !m.IsCCS() {
		t.Fatalf("should have become CCS: ccs=%q state=%v", m.CCS(), m.State())
	}
	// And as a non-top CCS it must probe vax1 at low frequency.
	run(t, f, time.Minute)
	found := false
	for _, p := range f.probes {
		if p == "vax1" {
			found = true
		}
	}
	if !found {
		t.Fatal("non-top CCS never probed the higher-priority host")
	}
}

func TestPartitionRejoinDemotesCCS(t *testing.T) {
	f := newFake("vax2")
	m := New(f, Config{ProbeEvery: 10 * time.Second}, "", Sites{List: []string{"vax1", "vax2"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1") // partition: vax1 unreachable
	run(t, f, time.Second)
	if !m.IsCCS() {
		t.Fatal("setup: vax2 should be acting CCS")
	}
	// Heal the partition: vax1 reachable again.
	f.reachable["vax1"] = true
	run(t, f, 30*time.Second)
	if m.CCS() != "vax1" {
		t.Fatalf("after heal ccs=%q, want vax1", m.CCS())
	}
	if m.IsCCS() {
		t.Fatal("vax2 should have demoted itself")
	}
	// Announcement of the restored CCS went out.
	last := f.announced[len(f.announced)-1]
	if last != "vax1" {
		t.Fatalf("announced = %v", f.announced)
	}
}

func TestIsolationTimeToDie(t *testing.T) {
	f := newFake("vax3") // nothing reachable, self not on list
	m := New(f, Config{TimeToDie: time.Minute, RetryEvery: 20 * time.Second}, "", Sites{List: []string{"vax1", "vax2"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.State() != Isolated {
		t.Fatalf("state = %v, want isolated", m.State())
	}
	run(t, f, 2*time.Minute)
	if !f.terminated {
		t.Fatal("time-to-die never fired")
	}
}

func TestIsolationRescuedByRetry(t *testing.T) {
	f := newFake("vax3")
	m := New(f, Config{TimeToDie: 5 * time.Minute, RetryEvery: 10 * time.Second}, "", Sites{List: []string{"vax1", "vax2"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.State() != Isolated {
		t.Fatal("setup: not isolated")
	}
	// vax2 comes back before time-to-die.
	f.reachable["vax2"] = true
	run(t, f, 30*time.Second)
	if m.State() != Normal || m.CCS() != "vax2" {
		t.Fatalf("state=%v ccs=%q", m.State(), m.CCS())
	}
	run(t, f, 10*time.Minute)
	if f.terminated {
		t.Fatal("time-to-die fired after rescue")
	}
}

func TestIsolationRescuedByContact(t *testing.T) {
	f := newFake("vax3")
	m := New(f, Config{TimeToDie: time.Minute}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.State() != Isolated {
		t.Fatal("setup: not isolated")
	}
	// A request arrives from an LPM in contact with a valid CCS.
	m.OnContact("vax5")
	if m.State() != Normal || m.CCS() != "vax5" {
		t.Fatalf("state=%v ccs=%q", m.State(), m.CCS())
	}
	run(t, f, 10*time.Minute)
	if f.terminated {
		t.Fatal("time-to-die fired after contact rescue")
	}
}

func TestOnContactDoesNotOverrideNormal(t *testing.T) {
	f := newFake("vax2")
	m := New(f, Config{}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.OnContact("vax9")
	if m.CCS() != "vax1" {
		t.Fatal("contact overrode a healthy CCS")
	}
}

func TestOnContactFillsUnknownCCS(t *testing.T) {
	f := newFake("vax2")
	m := New(f, Config{}, "", Sites{})
	m.OnContact("vax1")
	if m.CCS() != "vax1" {
		t.Fatal("contact should fill an unknown CCS")
	}
}

func TestLossOfNonCCSSiblingChecksCCS(t *testing.T) {
	f := newFake("vax2", "vax1")
	m := New(f, Config{}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax9") // some other sibling died
	run(t, f, time.Second)
	if m.State() != Normal || m.CCS() != "vax1" {
		t.Fatalf("state=%v ccs=%q", m.State(), m.CCS())
	}
	if len(f.connects) == 0 || f.connects[0] != "vax1" {
		t.Fatalf("should have confirmed the CCS circuit: %v", f.connects)
	}
}

func TestCCSIgnoresSiblingLoss(t *testing.T) {
	f := newFake("vax1")
	m := New(f, Config{}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1") // we are the CCS
	m.OnSiblingLost("vax2")
	run(t, f, time.Second)
	if m.State() != Normal || !m.IsCCS() {
		t.Fatalf("CCS should stay put: state=%v", m.State())
	}
	if len(f.probes) != 0 {
		t.Fatal("CCS should not walk the recovery list on sibling loss")
	}
}

func TestStopHaltsEverything(t *testing.T) {
	f := newFake("vax3")
	m := New(f, Config{TimeToDie: time.Minute}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	m.Stop()
	run(t, f, 10*time.Minute)
	if f.terminated {
		t.Fatal("stopped manager still terminated processes")
	}
}

func TestTopOfListCCSDoesNotProbe(t *testing.T) {
	f := newFake("vax1")
	m := New(f, Config{ProbeEvery: 5 * time.Second}, "", Sites{List: []string{"vax1", "vax2"}})
	m.SetCCS("vax1")
	run(t, f, time.Minute)
	if len(f.probes) != 0 {
		t.Fatalf("top-of-list CCS probed: %v", f.probes)
	}
}

func TestStateStrings(t *testing.T) {
	if Normal.String() != "normal" || Seeking.String() != "seeking" ||
		Isolated.String() != "isolated" || State(0).String() != "unknown" {
		t.Fatal("state names wrong")
	}
}

func TestEmptyListIsolatesImmediately(t *testing.T) {
	f := newFake("vax1")
	m := New(f, Config{TimeToDie: time.Minute}, "", Sites{})
	// Empty list and we are "top of list" by definition, but with no
	// CCS set a loss walks an empty list and isolates.
	m.ccs = "vax9"
	m.OnSiblingLost("vax9")
	run(t, f, time.Second)
	if m.State() != Isolated {
		t.Fatalf("state = %v", m.State())
	}
}

// fakeLocator scripts a name server.
type fakeLocator struct {
	ccs        map[string]string
	down       bool
	registered []string
	queries    int
}

func (f *fakeLocator) LocateCCS(user string, cb func(string, bool)) {
	f.queries++
	if f.down {
		cb("", false)
		return
	}
	h, ok := f.ccs[user]
	cb(h, ok)
}

func (f *fakeLocator) RegisterCCS(user, host string) {
	if f.ccs == nil {
		f.ccs = map[string]string{}
	}
	f.ccs[user] = host
	f.registered = append(f.registered, user+"@"+host)
}

func TestLocatorDrivesRecovery(t *testing.T) {
	f := newFake("vax3", "vax7") // vax7 reachable but NOT on any list
	loc := &fakeLocator{ccs: map[string]string{"felipe": "vax7"}}
	m := New(f, Config{}, "felipe", Sites{List: []string{"vax1"}, Locator: loc})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.CCS() != "vax7" {
		t.Fatalf("ccs = %q, want the name server's answer vax7", m.CCS())
	}
	if loc.queries == 0 {
		t.Fatal("name server never consulted")
	}
}

func TestLocatorDownFallsBackToList(t *testing.T) {
	f := newFake("vax3", "vax2")
	loc := &fakeLocator{down: true}
	m := New(f, Config{}, "felipe", Sites{List: []string{"vax1", "vax2"}, Locator: loc})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.CCS() != "vax2" {
		t.Fatalf("ccs = %q, want list fallback vax2", m.CCS())
	}
}

func TestLocatorAnswerUnreachableFallsBack(t *testing.T) {
	f := newFake("vax3", "vax2") // vax7 (the stale registration) is down
	loc := &fakeLocator{ccs: map[string]string{"felipe": "vax7"}}
	m := New(f, Config{}, "felipe", Sites{List: []string{"vax1", "vax2"}, Locator: loc})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.CCS() != "vax2" {
		t.Fatalf("ccs = %q, want fallback past the stale registration", m.CCS())
	}
}

func TestLocatorAnswerIsSelf(t *testing.T) {
	f := newFake("vax3")
	loc := &fakeLocator{ccs: map[string]string{"felipe": "vax3"}}
	m := New(f, Config{}, "felipe", Sites{Locator: loc})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if !m.IsCCS() {
		t.Fatalf("should have become CCS per the name server; ccs=%q", m.CCS())
	}
}

func TestBecomingCCSRegistersWithLocator(t *testing.T) {
	f := newFake("vax2")
	loc := &fakeLocator{}
	m := New(f, Config{}, "felipe", Sites{List: []string{"vax1", "vax2"}, Locator: loc})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1") // vax1 dead, locator empty -> list -> self
	run(t, f, time.Second)
	if !m.IsCCS() {
		t.Fatalf("setup: ccs=%q", m.CCS())
	}
	if len(loc.registered) == 0 || loc.registered[len(loc.registered)-1] != "felipe@vax2" {
		t.Fatalf("registered = %v", loc.registered)
	}
}

func TestStoppedManagerIgnoresAllInputs(t *testing.T) {
	f := newFake("vax2", "vax1")
	m := New(f, Config{}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.Stop()
	m.SetCCS("vax9")
	if m.CCS() != "vax1" {
		t.Fatal("SetCCS after Stop applied")
	}
	m.OnSiblingLost("vax1")
	m.OnContact("vax9")
	run(t, f, time.Minute)
	if len(f.probes)+len(f.connects) != 0 {
		t.Fatal("stopped manager acted")
	}
}

func TestSeekSkipsUnreachableLocatorAndConnectFailure(t *testing.T) {
	// Probe succeeds but ConnectCCS fails (circuit refused): the walk
	// moves on to the next candidate.
	f := newFake("vax3")
	f.reachable["vax1"] = true // probe ok...
	probeOnly := true
	// Make ConnectCCS to vax1 fail while probe succeeds by toggling
	// reachability between the two calls.
	origConnect := f.connects
	_ = origConnect
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax3"}})
	m.SetCCS("vax1")
	// Intercept: after the probe fires, drop reachability so the
	// connect fails.
	f.sched.After(5*time.Millisecond, func() {
		if probeOnly {
			f.reachable["vax1"] = false
		}
	})
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	// vax1 connect failed; vax3 (self) is next: become CCS.
	if !m.IsCCS() {
		t.Fatalf("ccs=%q state=%v", m.CCS(), m.State())
	}
}

func TestIsolatedReseekWhileStillIsolatedReschedules(t *testing.T) {
	f := newFake("vax3")
	m := New(f, Config{TimeToDie: time.Hour, RetryEvery: 10 * time.Second}, "", Sites{List: []string{"vax1"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	run(t, f, time.Second)
	if m.State() != Isolated {
		t.Fatal("setup")
	}
	// Several retry cycles, all failing: still isolated, still probing.
	run(t, f, time.Minute)
	if m.State() != Isolated {
		t.Fatalf("state = %v", m.State())
	}
	if len(f.probes) < 3 {
		t.Fatalf("probes = %d, want repeated retries", len(f.probes))
	}
}

func TestClimbSkipsUnreachableThenRetries(t *testing.T) {
	f := newFake("vax3")
	m := New(f, Config{ProbeEvery: 10 * time.Second}, "", Sites{List: []string{"vax1", "vax2", "vax3"}})
	m.SetCCS("vax3") // acting CCS, two higher-priority hosts both down
	run(t, f, time.Minute)
	// Both vax1 and vax2 probed repeatedly.
	saw1, saw2 := 0, 0
	for _, p := range f.probes {
		switch p {
		case "vax1":
			saw1++
		case "vax2":
			saw2++
		}
	}
	if saw1 < 2 || saw2 < 2 {
		t.Fatalf("probes: vax1=%d vax2=%d (%v)", saw1, saw2, f.probes)
	}
	// vax2 comes up: demote to it even though vax1 stays down.
	f.reachable["vax2"] = true
	run(t, f, 30*time.Second)
	if m.CCS() != "vax2" {
		t.Fatalf("ccs = %q, want vax2", m.CCS())
	}
}

func TestTwoSiblingLossesStartOneSeek(t *testing.T) {
	// Two non-CCS siblings are lost at once and both confirms of the
	// dead CCS fail: the second failure must not start a second seek
	// beside the first, which would skip vax2 and take over here.
	f := newFake("vax3", "vax2")
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax2", "vax3"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax4")
	m.OnSiblingLost("vax5")
	run(t, f, time.Second)
	if got := strings.Join(f.probes, " "); got != "vax1 vax2" {
		t.Fatalf("probes = [%s], want [vax1 vax2]", got)
	}
	if m.CCS() != "vax2" || m.State() != Normal {
		t.Fatalf("ccs=%q state=%v, want vax2 normal", m.CCS(), m.State())
	}
}

func TestClimbProbesOnlyHostsAbove(t *testing.T) {
	for _, tc := range []struct {
		name, host string
		list       []string
		demote     bool // SetCCS to another host while the climb's connect is in flight
		probes     string
		ccs        string
	}{
		// A CCS absent from its own list climbs the whole list, then
		// reschedules: two rounds of every host.
		{name: "absent from list", host: "vax9", list: []string{"vax1", "vax2", "vax3"},
			probes: "vax1 vax2 vax3 vax1 vax2 vax3", ccs: "vax9"},
		// A CCS in the middle probes only the hosts above it.
		{name: "middle of list", host: "vax2", list: []string{"vax1", "vax2", "vax3"},
			probes: "vax1 vax1", ccs: "vax2"},
		// A climb whose connect answers after this LPM stopped being
		// the CCS takes nothing.
		{name: "demoted mid-climb", host: "vax2", list: []string{"vax1", "vax2"},
			demote: true, probes: "vax1", ccs: "vax7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(tc.host)
			m := New(f, Config{ProbeEvery: 10 * time.Second}, "", Sites{List: tc.list})
			m.SetCCS(tc.host)
			if tc.demote {
				f.reachable["vax1"] = true
				// The probe answers at 10.01 s and the connect at
				// 10.02 s; the CCS moves in between.
				f.sched.After(10*time.Second+15*time.Millisecond, func() { m.SetCCS("vax7") })
			}
			run(t, f, 25*time.Second)
			if got := strings.Join(f.probes, " "); got != tc.probes {
				t.Errorf("probes = [%s], want [%s]", got, tc.probes)
			}
			if m.CCS() != tc.ccs || len(f.announced) != 0 {
				t.Errorf("ccs=%q announced=%v, want %s and no announcement", m.CCS(), f.announced, tc.ccs)
			}
		})
	}
}

func TestRescuedSeekEndsWhenANewOneStarts(t *testing.T) {
	// A seek rescued by a contact (back to Normal) and then restarted by
	// the loss of the new CCS: the first seek's probe still answers, and
	// must not step beside the second one.
	f := newFake("vax3")
	m := New(f, Config{}, "", Sites{List: []string{"vax1", "vax2", "vax3"}})
	m.SetCCS("vax1")
	m.OnSiblingLost("vax1")
	f.sched.After(5*time.Millisecond, func() { m.OnContact("vax9") })
	f.sched.After(6*time.Millisecond, func() { m.OnSiblingLost("vax9") })
	run(t, f, time.Second)
	if got := strings.Join(f.probes, " "); got != "vax1 vax1 vax2" {
		t.Fatalf("probes = [%s], want [vax1 vax1 vax2]", got)
	}
}
