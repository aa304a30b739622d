// Package detect implements an adaptive, accrual-style failure
// detector for sibling circuits, in the spirit of the DIR Net's
// detection layer ("The DIR Net: A Distributed System for Detection,
// Isolation, and Recovery"): instead of declaring a peer dead after a
// fixed timeout, each endpoint keeps a smoothed estimate of the
// peer's message inter-arrival time and derives an integer suspicion
// level from how far the current silence has outrun that estimate.
//
// The estimator is Jacobson/Karels (the TCP RTT filter): a smoothed
// mean plus a mean-deviation term, all integer arithmetic on
// time.Duration, so two same-seed runs produce bit-identical
// suspicion trajectories. The suspicion level is
//
//	suspicion = elapsed_silence / (srtt + 4*rttvar)
//
// capped, and floored at the heartbeat period: the silence between two
// heartbeats is expected, however short the gaps that other traffic
// left in the estimate. So a link whose traffic is merely slow (large
// but steady inter-arrivals) never looks suspect, while a link whose
// traffic stops cold accrues suspicion within a few heartbeat periods —
// far faster than a fixed worst-case timeout.
package detect

import "time"

// Config bounds the detector's estimate.
type Config struct {
	// Period is the heartbeat period. It is the threshold before the
	// first inter-arrival sample exists, and the threshold's floor
	// after. Zero means 2s.
	Period time.Duration
	// Cap is the maximum suspicion level Suspicion reports. Zero
	// means 16.
	Cap int
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 2 * time.Second
	}
	if c.Cap == 0 {
		c.Cap = 16
	}
	return c
}

// Detector tracks one peer's message inter-arrival history. The zero
// value is not ready; construct with New or call Reset before use.
// Detector is a value type embedded in its owner — no allocation per
// peer, no pointers for the GC to chase.
type Detector struct {
	cfg     Config
	last    time.Duration // virtual-clock instant of the last arrival
	srtt    time.Duration // smoothed inter-arrival estimate
	rttvar  time.Duration // smoothed mean deviation
	samples uint64
}

// New returns a detector configured by cfg whose observation window
// starts at now (a virtual-clock reading).
func New(cfg Config, now time.Duration) Detector {
	d := Detector{cfg: cfg.withDefaults()}
	d.Reset(now)
	return d
}

// Reset clears the inter-arrival history and restarts the observation
// window at now. Call on circuit (re-)establishment: history from a
// previous circuit incarnation says nothing about the new one.
func (d *Detector) Reset(now time.Duration) {
	d.last = now
	d.srtt = 0
	d.rttvar = 0
	d.samples = 0
}

// Observe records a message arrival at virtual-clock instant now and
// folds the inter-arrival gap into the smoothed estimate using the
// Jacobson/Karels integer filter (gain 1/8 on the mean, 1/4 on the
// deviation).
//
//ppmlint:hotpath pin=TestDetectorStepZeroAllocs
func (d *Detector) Observe(now time.Duration) {
	s := now - d.last
	if s < 0 {
		s = 0
	}
	d.last = now
	if d.samples == 0 {
		d.srtt = s
		d.rttvar = s / 2
	} else {
		diff := s - d.srtt
		if diff < 0 {
			diff = -diff
		}
		d.rttvar += (diff - d.rttvar) / 4
		d.srtt += (s - d.srtt) / 8
	}
	d.samples++
}

// Threshold returns the current detection threshold: the silence
// duration corresponding to one unit of suspicion. It is the period
// before any sample exists, and whenever the estimate is shorter.
func (d *Detector) Threshold() time.Duration {
	if t := d.srtt + 4*d.rttvar; d.samples > 0 && t > d.cfg.Period {
		return t
	}
	return d.cfg.Period
}

// Suspicion returns the integer suspicion level at virtual-clock
// instant now: how many detection thresholds the current silence has
// lasted, capped at Config.Cap. Zero means the peer looks healthy.
//
//ppmlint:hotpath pin=TestDetectorStepZeroAllocs
func (d *Detector) Suspicion(now time.Duration) int {
	elapsed := now - d.last
	if elapsed <= 0 {
		return 0
	}
	level := int(elapsed / d.Threshold())
	if level > d.cfg.Cap {
		level = d.cfg.Cap
	}
	return level
}
