package detect

import (
	"time"
)

// Product-type methods only this package's tests call. They live in a
// _test.go file so the shipped API is what non-test code uses.

// Samples returns how many inter-arrival samples the estimate rests
// on.
func (d *Detector) Samples() uint64 { return d.samples }

// Estimate returns the current smoothed inter-arrival and deviation
// estimates, for introspection and tests.
func (d *Detector) Estimate() (srtt, rttvar time.Duration) { return d.srtt, d.rttvar }
