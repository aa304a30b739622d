package kernel

import (
	"fmt"
	"time"

	"ppm/internal/proc"
)

// Product-type methods only this package's tests call. They live in a
// _test.go file so the shipped API is what non-test code uses.

// Reap removes an exited process from the table.
func (h *Host) Reap(pid proc.PID) error {
	p, err := h.get(pid)
	if err != nil {
		return err
	}
	if p.State != proc.Exited {
		return fmt.Errorf("%w: reap of live pid %d", ErrPermission, pid)
	}
	delete(h.procs, pid)
	return nil
}

// MeasureDelivery returns the modelled delivery latency at the current
// load; the Table 1 harness reads this alongside real event streams.
func (h *Host) MeasureDelivery() time.Duration {
	return h.model.KernelMsgDelivery(h.LoadAvg())
}

// LiveCount returns the number of live (running or stopped) processes
// of user — the quantity the LPM's time-to-live logic watches.
func (h *Host) LiveCount(user string) int {
	n := 0
	for _, p := range h.procs {
		if p.User == user && (p.State == proc.Running || p.State == proc.Stopped) {
			n++
		}
	}
	return n
}
