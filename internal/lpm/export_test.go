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

// KnownRoute returns the learned relay path to host, if any.
func (l *LPM) KnownRoute(host string) ([]string, bool) {
	p, ok := l.routes[host]
	if !ok {
		return nil, false
	}
	return append([]string(nil), p...), true
}

// circuitStateOf returns the lifecycle state tracked for a peer.
func (l *LPM) circuitStateOf(peer string) journal.CircuitState { return l.circuits[peer] }

// SkipStatusDedup turns the status-flood dedup mutation on or off (see
// skipStatusDedup).
func SkipStatusDedup(on bool) { skipStatusDedup = on }
