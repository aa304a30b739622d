package lpm

import (
	"fmt"

	"ppm/internal/journal"
	"ppm/internal/wire"
)

// circuitState is one state of the explicit sibling-circuit lifecycle
// (modeled on the HSMS connection state machine): every circuit a
// host's LPM tracks to a peer is, at any instant, in exactly one of
// these states, and every step is journaled under
// journal.CircuitTransition so the audit can replay the machine
// against the legal-transition table.
type circuitState uint8

const (
	circuitIdle circuitState = iota
	circuitDialing
	circuitAuthenticating
	circuitEstablished
	circuitSuspect
	circuitClosed
)

// circuitStateNames renders states without allocating; the names are
// the journal vocabulary the audit parses back.
var circuitStateNames = [...]string{
	circuitIdle:           "idle",
	circuitDialing:        "dialing",
	circuitAuthenticating: "authenticating",
	circuitEstablished:    "established",
	circuitSuspect:        "suspect",
	circuitClosed:         "closed",
}

func (s circuitState) String() string {
	if int(s) < len(circuitStateNames) {
		return circuitStateNames[s]
	}
	return "invalid"
}

// circuitTransition steps the per-peer circuit machine to state `to`,
// journaling the edge. A self-transition is a no-op, so call sites
// can drive the machine from every signal (detector ticks, close
// handlers, supersede paths) without guarding against repeats; reason
// and chan tokens must contain no spaces (journal.Field contract).
func (l *LPM) circuitTransition(peer string, to circuitState, reason, chanKey string) {
	from := l.circuits[peer]
	if from == to {
		return
	}
	l.circuits[peer] = to
	l.obs.Notef(journal.CircuitTransition, l.Host(), l.obs.Tracer().Active(),
		"user=%s peer=%s chan=%s from=%s to=%s reason=%s", l.user.Name, peer, chanKey, from, to, reason)
}

// --- adaptive failure detection (linktest heartbeats) ---

// scheduleLinktest arms the next detector tick for a circuit. The
// period doubles as both the heartbeat interval and the suspicion
// evaluation cadence.
func (l *LPM) scheduleLinktest(sb *sibling) {
	sb.ltTimer = l.sched.After(l.cfg.Linktest, func() { l.linktestTick(sb) })
}

// linktestTick is one detector step for one circuit: evaluate the
// accrual suspicion level against the configured thresholds, step the
// circuit machine (Established → Suspect → Closed), and send the next
// heartbeat frame. Runs only while this sibling is still the
// registered circuit for its host.
func (l *LPM) linktestTick(sb *sibling) {
	// The suspicion levels at which an Established circuit steps to
	// Suspect, and at which it is closed as presumed-dead.
	const suspectAfter, closeAfter = 2, 6

	if l.exited {
		return
	}
	if cur, ok := l.siblings[sb.host]; !ok || cur != sb || !sb.conn.Open() {
		return
	}
	now := l.sched.Now().Duration()
	sb.suspicion = sb.det.Suspicion(now)
	l.obs.Metrics().Gauge("lpm.detector.suspicion." + sb.host).Set(int64(sb.suspicion))
	if sb.suspicion >= closeAfter {
		// The silence has outrun the estimate far enough that the peer
		// is presumed gone: close the circuit. The close handler runs
		// the usual teardown (pending-request failure, recovery
		// notification); the transition is journaled first so the
		// audit sees detector-initiated closes as such.
		l.obs.Metrics().Counter("lpm.detector.closes").Inc()
		l.circuitTransition(sb.host, circuitClosed, "detector", l.chanKey(sb.conn))
		sb.conn.Close()
		return
	}
	if sb.suspicion >= suspectAfter && l.circuits[sb.host] == circuitEstablished {
		l.obs.Metrics().Counter("lpm.detector.suspects").Inc()
		l.circuitTransition(sb.host, circuitSuspect, fmt.Sprintf("suspicion-%d", sb.suspicion), l.chanKey(sb.conn))
	}
	sb.ltSeq++
	body := wire.Encode(&wire.LinkTest{FromHost: l.Host(), Seq: sb.ltSeq})
	l.sendOneWay(sb, wire.MsgLinkTest, body)
	l.scheduleLinktest(sb)
}

// observeArrival feeds one message arrival into the circuit's failure
// detector and resolves a Suspect circuit back to Established — any
// traffic is proof of life, not just linktest echoes.
func (l *LPM) observeArrival(sb *sibling) {
	sb.det.Observe(l.sched.Now().Duration())
	if sb.suspicion != 0 {
		sb.suspicion = 0
		l.obs.Metrics().Gauge("lpm.detector.suspicion." + sb.host).Set(0)
	}
	if l.circuits[sb.host] == circuitSuspect {
		l.circuitTransition(sb.host, circuitEstablished, "traffic", l.chanKey(sb.conn))
	}
}
