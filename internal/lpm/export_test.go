package lpm

// Product-type methods only this package's tests call. They live in a
// _test.go file so the shipped API is what non-test code uses.

import "ppm/internal/journal"

// SeenStamps returns the number of live (unexpired) broadcast stamps
// (for the dedup-window ablation).
func (l *LPM) SeenStamps() int {
	l.seen.Expire(l.sched.Now().Duration())
	return l.seen.Len()
}

// SiblingHosts returns the hosts with an authenticated circuit.
func (l *LPM) SiblingHosts() []string {
	var out []string
	for _, p := range l.ordered {
		if p.open() != nil {
			out = append(out, p.host)
		}
	}
	return out
}

// KnownRoute returns the learned relay path to host, if any.
func (l *LPM) KnownRoute(host string) ([]string, bool) {
	p := l.peers[host]
	if p == nil || p.route == nil {
		return nil, false
	}
	return append([]string(nil), p.route...), true
}

// circuitStateOf returns the lifecycle state tracked for a peer.
func (l *LPM) circuitStateOf(host string) journal.CircuitState {
	if p := l.peers[host]; p != nil {
		return p.state
	}
	return journal.CircuitIdle
}

// SkipStatusDedup turns the status-flood dedup mutation on or off (see
// skipStatusDedup).
func SkipStatusDedup(on bool) { skipStatusDedup = on }
