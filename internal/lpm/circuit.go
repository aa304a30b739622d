package lpm

import (
	"ppm/internal/journal"
	"ppm/internal/wire"
)

// circuitTransition steps the per-peer circuit machine to state `to`,
// journaling the edge as data (journal.CircuitStep). A self-transition
// is a no-op, so call sites can drive the machine from every signal
// (detector ticks, close handlers, supersede paths) without guarding
// against repeats. level is the detector's, for reason "suspicion".
//
// The step is the one record of a circuit opening (Authenticating to
// Established) or closing (Established or Suspect to Closed), so every
// circuit count derives from it here, the detector's included.
func (l *LPM) circuitTransition(p *peer, chanKey string, to journal.CircuitState, reason string, level int) {
	from := p.state
	if from == to {
		return
	}
	p.state = to
	l.obs.Record(journal.CircuitTransition, l.Host(), l.obs.Tracer().Active(),
		journal.CircuitStep(l.user.Name, p.host, chanKey, from, to, reason, level))
	m, c := l.obs.Metrics(), &l.circuits
	switch {
	case to == journal.CircuitSuspect:
		m.Handle(&c.suspects, "lpm.detector.suspects").Inc()
	case to == journal.CircuitEstablished && from != journal.CircuitSuspect:
		if c.open == nil { // resolved at the first open, which every close follows
			c.open = m.Gauge("lpm.siblings.open")
		}
		m.Handle(&c.opened, "lpm.siblings.opened").Inc()
		c.open.Add(1)
	case to == journal.CircuitClosed && (from == journal.CircuitEstablished || from == journal.CircuitSuspect):
		m.Handle(&c.closed, "lpm.siblings.closed").Inc()
		c.open.Add(-1)
		if reason == "detector" {
			m.Handle(&c.detectorCloses, "lpm.detector.closes").Inc()
		}
	}
}

// --- adaptive failure detection (linktest heartbeats) ---

// The suspicion levels at which an Established circuit steps to
// Suspect, and at which it is closed as presumed-dead.
const suspectAfter, closeAfter = 2, 6

// scheduleLinktest arms the next detector tick for a circuit with its
// tick, bound once at registration. The period doubles as both the
// heartbeat interval and the suspicion evaluation cadence.
func (l *LPM) scheduleLinktest(sb *sibling) {
	sb.ltTimer = l.sched.After(l.cfg.Linktest, sb.tick)
}

// linktestTick is one detector step for one circuit: evaluate the
// accrual suspicion level against the configured thresholds, step the
// circuit machine (Established → Suspect → Closed), and send the next
// heartbeat frame. Runs only while this sibling is still the
// registered circuit for its host, and while a request waits on it or it
// is Suspect (a suspicion ends in traffic or a close): a request re-arms it.
func (l *LPM) linktestTick(sb *sibling) {
	if l.exited {
		return
	}
	p := sb.peer
	if p.sb != sb || !sb.conn.Open() || p.waiting == 0 && p.state != journal.CircuitSuspect {
		return
	}
	now := l.sched.Now().Duration()
	sb.suspicion = sb.det.Suspicion(now)
	if p.suspicion == nil {
		p.suspicion = l.obs.Metrics().Gauge("lpm.detector.suspicion." + p.host)
	}
	p.suspicion.Set(int64(sb.suspicion))
	if sb.suspicion >= closeAfter {
		// The silence has outrun the estimate far enough that the peer
		// is presumed gone: close the circuit. The close handler runs
		// the usual teardown (pending-request failure) and, reading the
		// level, reports the peer lost: the redial loop dials it and
		// recovery confirms the CCS. The transition is journaled first
		// so the audit sees detector-initiated closes as such.
		l.circuitTransition(p, sb.chanKey, journal.CircuitClosed, "detector", 0)
		sb.conn.Close()
		return
	}
	if sb.suspicion >= suspectAfter && p.state == journal.CircuitEstablished {
		l.circuitTransition(p, sb.chanKey, journal.CircuitSuspect, "suspicion", sb.suspicion)
	}
	sb.ltSeq++
	body := wire.Encode(&wire.LinkTest{FromHost: l.Host(), Seq: sb.ltSeq})
	l.sendOut(sb, wire.Envelope{Type: wire.MsgLinkTest, Body: body})
	l.scheduleLinktest(sb)
}

// observeArrival feeds one message arrival into the circuit's failure
// detector and resolves a Suspect circuit back to Established — any
// traffic is proof of life, not just linktest echoes.
func (l *LPM) observeArrival(sb *sibling) {
	sb.det.Observe(l.sched.Now().Duration())
	if sb.suspicion != 0 {
		sb.suspicion = 0
		sb.peer.suspicion.Set(0) // resolved: only a tick sets a level
	}
	if sb.peer.state == journal.CircuitSuspect {
		l.circuitTransition(sb.peer, sb.chanKey, journal.CircuitEstablished, "traffic", 0)
	}
}
