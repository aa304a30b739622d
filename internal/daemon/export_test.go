package daemon

import (
	"ppm/internal/simnet"
)

// Product-type methods only this package's tests call. They live in a
// _test.go file so the shipped API is what non-test code uses.

// CrashDaemon simulates a crash of the pmd alone (not the host, not the
// LPMs). Without stable storage the table is lost and, as the paper
// observes, "the process management mechanism does not operate
// correctly": a subsequent query spawns a duplicate LPM. With stable
// storage the table is reloaded.
func (d *Daemons) CrashDaemon() {
	d.lpms = make(map[string]simnet.Addr)
	if d.opts.StableStorage {
		for u, a := range d.stable {
			d.lpms[u] = a
		}
	}
}
