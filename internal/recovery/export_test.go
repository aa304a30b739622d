package recovery

import (
	"ppm/internal/detord"
)

// Product-type methods only this package's tests call. They live in a
// _test.go file so the shipped API is what non-test code uses.

// LostSiblings returns the hosts currently in the redial loop, in
// deterministic order (for tests).
func (m *Manager) LostSiblings() []string {
	return detord.Keys(m.lost)
}
