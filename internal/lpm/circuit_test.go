package lpm

import (
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/simnet"
	"ppm/internal/trace"
)

// circuitWorld builds a journaled two-host world; opts stretch
// BreakDetect in the detector tests so the transport's fixed timeout
// cannot be what closes the circuit.
func circuitWorld(t *testing.T, cfg Config, breakDetect time.Duration) (*world, *journal.Journal) {
	t.Helper()
	w := newWorldNet(t, cfg, simnet.Options{BreakDetect: breakDetect}, []string{"vax1", "vax2"})
	j := journal.New(func() time.Duration { return w.sched.Now().Duration() })
	w.net.SetRecorder(journal.NewRecorder(nil, nil, j))
	return w, j
}

func (w *world) ensure(l *LPM, host string) *sibling {
	w.t.Helper()
	var sb *sibling
	var serr error
	done := false
	l.ensureSibling(trace.Context{}, host, func(s *sibling, err error) {
		sb, serr, done = s, err, true
	})
	w.until(func() bool { return done })
	if serr != nil {
		w.t.Fatalf("ensureSibling(%s): %v", host, serr)
	}
	return sb
}

func auditClean(t *testing.T, j *journal.Journal) {
	t.Helper()
	if vs := journal.Audit(j); len(vs) != 0 {
		t.Fatalf("journal audit:\n%s", journal.AuditReport(vs))
	}
}

// transitions extracts the "to/reason" of each circuit.transition
// record for one observer host, from its rendered detail's tail
// ("... to=suspect reason=suspicion-2").
func transitions(j *journal.Journal, host string) []string {
	var out []string
	for _, r := range j.Records() {
		if r.Kind == journal.CircuitTransition && r.Host == host {
			_, step, _ := strings.Cut(r.Detail, " to=")
			out = append(out, strings.Replace(step, " reason=", "/", 1))
		}
	}
	return out
}

// Simultaneous cross-dial: both hosts dial each other in the same
// tick. The deterministic tie-break (lower host name's outbound wins)
// must leave exactly one established circuit, agreed on by both ends.
func TestCrossDialTieBreakSingleCircuit(t *testing.T) {
	w, j := circuitWorld(t, Config{}, 0)
	u := w.user("felipe", "vax1", "vax2")
	l1 := w.attach("vax1", u)
	l2 := w.attach("vax2", u)

	var sb1, sb2 *sibling
	d1, d2 := false, false
	l1.ensureSibling(trace.Context{}, "vax2", func(s *sibling, err error) {
		if err != nil {
			t.Errorf("vax1 dial: %v", err)
		}
		sb1, d1 = s, true
	})
	l2.ensureSibling(trace.Context{}, "vax1", func(s *sibling, err error) {
		if err != nil {
			t.Errorf("vax2 dial: %v", err)
		}
		sb2, d2 = s, true
	})
	w.until(func() bool { return d1 && d2 })
	if sb1 == nil || sb2 == nil {
		t.Fatal("a dial settled without a sibling")
	}
	// Both ends must have converged on the same single circuit: the
	// chan identity renders identically from either side.
	if k1, k2 := sb1.chanKey, sb2.chanKey; k1 != k2 || k1 != l1.chanKey(sb1.conn) {
		t.Fatalf("split brain: vax1 uses %s, vax2 uses %s", k1, k2)
	}
	if l1.circuitStateOf("vax2") != journal.CircuitEstablished ||
		l2.circuitStateOf("vax1") != journal.CircuitEstablished {
		t.Fatalf("states: vax1=%v vax2=%v",
			l1.circuitStateOf("vax2"), l2.circuitStateOf("vax1"))
	}
	// Exactly one distinct channel ever reached Established.
	est := map[string]bool{}
	for _, r := range j.Records() {
		if _, rest, _ := strings.Cut(r.Detail, " chan="); r.Kind == journal.CircuitTransition &&
			strings.Contains(rest, " to=established ") {
			chanKey, _, _ := strings.Cut(rest, " ")
			est[chanKey] = true
		}
	}
	if len(est) != 1 {
		t.Fatalf("established channels = %v, want exactly one", est)
	}
	// The circuit works: a remote create rides the surviving end.
	w.create(l1, "vax2", "job1", proc.GPID{})
	// Nothing later (the loser's safety timer, stray closes) may
	// disturb the settled circuit.
	w.run(30 * time.Second)
	if l1.circuitStateOf("vax2") != journal.CircuitEstablished {
		t.Fatalf("circuit decayed to %v", l1.circuitStateOf("vax2"))
	}
	auditClean(t, j)
}

// Silence with the circuit still nominally open (severed replies, huge
// BreakDetect) must drive the detector Established -> Suspect ->
// Closed long before the transport's fixed timeout would act.
func TestDetectorSuspectsThenClosesOnSilence(t *testing.T) {
	w, j := circuitWorld(t, Config{Linktest: 200 * time.Millisecond}, 10*time.Minute)
	u := w.user("felipe", "vax1", "vax2")
	l1 := w.attach("vax1", u)
	w.ensure(l1, "vax2")
	// Warm the estimator: steady heartbeat echoes for a while.
	w.run(3 * time.Second)
	if l1.circuitStateOf("vax2") != journal.CircuitEstablished {
		t.Fatalf("warmup state = %v", l1.circuitStateOf("vax2"))
	}
	// Sever the network. The conns survive (BreakDetect = 10 min), so
	// only the accrual detector can notice within the test horizon.
	if err := w.net.Partition([]string{"vax1"}, []string{"vax2"}); err != nil {
		t.Fatal(err)
	}
	w.run(10 * time.Second)
	if got := l1.circuitStateOf("vax2"); got != journal.CircuitClosed {
		t.Fatalf("state after 10s of silence = %v, want closed", got)
	}
	// Both detectors race; whichever fires first closes with reason
	// "detector" and its clean close resolves the other end. Either
	// way a suspect step and a detector-reasoned close must exist.
	trs := append(transitions(j, "vax1"), transitions(j, "vax2")...)
	sawSuspect, sawDetectorClose := false, false
	for _, tr := range trs {
		if strings.HasPrefix(tr, "suspect/") {
			sawSuspect = true
		}
		if tr == "closed/detector" {
			sawDetectorClose = true
		}
	}
	if !sawSuspect || !sawDetectorClose {
		t.Fatalf("transitions %v: want a suspect step and a detector-reasoned close", trs)
	}
	auditClean(t, j)
}

// A transient one-way outage (replies lost, requests delivered) must
// raise Suspect, and resumed traffic must resolve it back to
// Established — no close, no flap of the circuit itself.
func TestDetectorSuspectRecoversOnTraffic(t *testing.T) {
	w, j := circuitWorld(t, Config{Linktest: 200 * time.Millisecond}, 10*time.Minute)
	u := w.user("felipe", "vax1", "vax2")
	l1 := w.attach("vax1", u)
	w.ensure(l1, "vax2")
	w.run(3 * time.Second)

	// Half-broken gateway: everything vax2 -> vax1 vanishes.
	w.net.InjectLossDir("vax2", "vax1", 1)
	w.run(700 * time.Millisecond)
	if got := l1.circuitStateOf("vax2"); got != journal.CircuitSuspect {
		t.Fatalf("state under one-way loss = %v, want suspect", got)
	}
	// Heal the direction: the next echo is proof of life.
	w.net.InjectLossDir("vax2", "vax1", 0)
	w.run(2 * time.Second)
	if got := l1.circuitStateOf("vax2"); got != journal.CircuitEstablished {
		t.Fatalf("state after heal = %v, want established", got)
	}
	trs := transitions(j, "vax1")
	sawRecover := false
	for _, tr := range trs {
		if tr == "established/traffic" {
			sawRecover = true
		}
		if strings.HasPrefix(tr, "closed/") {
			t.Fatalf("circuit closed during a recoverable one-way outage: %v", trs)
		}
	}
	if !sawRecover {
		t.Fatalf("transitions %v: want suspect resolved by traffic", trs)
	}
	auditClean(t, j)
}

// After a detector-initiated close the next use re-dials on demand:
// Closed -> Dialing -> ... -> Established, all legal, audit clean.
func TestDetectorCloseThenRedialOnDemand(t *testing.T) {
	w, j := circuitWorld(t, Config{Linktest: 200 * time.Millisecond}, 10*time.Minute)
	u := w.user("felipe", "vax1", "vax2")
	l1 := w.attach("vax1", u)
	w.ensure(l1, "vax2")
	w.run(2 * time.Second)
	if err := w.net.Partition([]string{"vax1"}, []string{"vax2"}); err != nil {
		t.Fatal(err)
	}
	w.run(10 * time.Second)
	if l1.circuitStateOf("vax2") != journal.CircuitClosed {
		t.Fatalf("setup: state = %v, want closed", l1.circuitStateOf("vax2"))
	}
	w.net.Heal()
	w.ensure(l1, "vax2")
	if l1.circuitStateOf("vax2") != journal.CircuitEstablished {
		t.Fatalf("redial state = %v", l1.circuitStateOf("vax2"))
	}
	auditClean(t, j)
}

// TestCircuitTransitionZeroAllocs: a step of the circuit machine states
// its edge as data — a constant reason, or the detector's level in its
// slot — and costs a wired recorder no allocation.
func TestCircuitTransitionZeroAllocs(t *testing.T) {
	w := newWorldNet(t, Config{}, simnet.Options{}, []string{"vax1", "vax2"})
	j := journal.New(func() time.Duration { return w.sched.Now().Duration() })
	j.SetCapacity(64)
	w.net.SetRecorder(journal.NewRecorder(metrics.New(nil), nil, j))
	l := w.attach("vax1", w.user("felipe", "vax1", "vax2"))
	p := l.peer("vax2")
	step := func() {
		l.circuitTransition(p, "vax1:701->vax2:700", journal.CircuitSuspect, "suspicion", 3)
		l.circuitTransition(p, "vax1:701->vax2:700", journal.CircuitEstablished, "traffic", 0)
	}
	for i := 0; i < 64; i++ {
		step() // until the ring has wrapped
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("two circuit steps allocated %v times, want 0", allocs)
	}
	if got := transitions(j, "vax1"); len(got) < 2 || got[len(got)-2] != "suspect/suspicion-3" || got[len(got)-1] != "established/traffic" {
		t.Fatalf("the steps read back as %v", got)
	}
}

// TestCrossDialLoserJournalsNoSecondHello: vax1's Hello lands at vax2
// while vax2's own dial to vax1 still waits for the pmd's answer, so the
// inbound circuit settles vax2's dial. The dial's pmd and connect
// callbacks, when they come, must leave the settled circuit alone: no
// Hello goes out over a second circuit, and vax2 journals no
// established -> authenticating step.
func TestCrossDialLoserJournalsNoSecondHello(t *testing.T) {
	w, j := circuitWorld(t, Config{}, 0)
	u := w.user("felipe", "vax1", "vax2")
	l1 := w.attach("vax1", u)
	l2 := w.attach("vax2", u)
	d1, d2 := false, false
	l1.ensureSibling(trace.Context{}, "vax2", func(_ *sibling, err error) { d1 = err == nil })
	w.stepUntil(func() bool { return l1.circuitStateOf("vax2") == journal.CircuitAuthenticating })
	sends := recordsAt(j, journal.NetSend, "vax1")
	w.stepUntil(func() bool { return recordsAt(j, journal.NetSend, "vax1") > sends }) // the Hello
	l2.ensureSibling(trace.Context{}, "vax1", func(_ *sibling, err error) { d2 = err == nil })
	w.until(func() bool { return d1 && d2 })
	w.run(30 * time.Second)
	if got := strings.Join(transitions(j, "vax2"), " "); got != "dialing/dial authenticating/hello-in established/auth-server" {
		t.Fatalf("vax2's circuit to vax1 stepped %s; want its dial settled by the inbound circuit", got)
	}
	auditClean(t, j)
}
