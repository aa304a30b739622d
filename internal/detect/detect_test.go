package detect

import (
	"testing"
	"time"
)

// TestDetectorStepZeroAllocs pins the detector hot path — one Observe
// plus one Suspicion query — at zero allocations. The detector steps
// once per delivered sibling message, so an allocation here would be
// a per-message heap cost across the whole cluster.
func TestDetectorStepZeroAllocs(t *testing.T) {
	d := New(Config{}, 0)
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100 * time.Millisecond
		d.Observe(now)
		_ = d.Suspicion(now + 50*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("detector step allocates: %v allocs/op", allocs)
	}
}

func TestDetectorAdaptsEstimate(t *testing.T) {
	d := New(Config{Period: 200 * time.Millisecond}, 0)
	now := time.Duration(0)
	for i := 0; i < 64; i++ {
		now += 200 * time.Millisecond
		d.Observe(now)
	}
	srtt, rttvar := d.Estimate()
	if srtt < 150*time.Millisecond || srtt > 250*time.Millisecond {
		t.Fatalf("srtt did not converge to ~200ms: %v", srtt)
	}
	if rttvar > 50*time.Millisecond {
		t.Fatalf("rttvar did not decay on a steady stream: %v", rttvar)
	}
	// Threshold tracks the stream: a few inter-arrival periods, not
	// a worst-case constant.
	if th := d.Threshold(); th > time.Second {
		t.Fatalf("threshold too loose for a 200ms stream: %v", th)
	}
}

// TestDetectorBeatsFixedTimeout is the acceptance test for adaptivity:
// under jittery ~100ms heartbeats, silence is detected (suspicion
// reaches the LPM's default suspect level, 2) far sooner than the
// fixed 10s request timeout the retry layer falls back on.
func TestDetectorBeatsFixedTimeout(t *testing.T) {
	const fixedTimeout = 10 * time.Second // lpm.Config.RequestTimeout default
	d := New(Config{Period: 100 * time.Millisecond}, 0)
	// Deterministic jitter: inter-arrivals cycle 80/100/120/140ms.
	gaps := []time.Duration{80, 100, 120, 140}
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += gaps[i%len(gaps)] * time.Millisecond
		d.Observe(now)
	}
	// The stream stops. Find when suspicion first reaches 2.
	var detected time.Duration
	for dt := time.Millisecond; dt < fixedTimeout; dt += time.Millisecond {
		if d.Suspicion(now+dt) >= 2 {
			detected = dt
			break
		}
	}
	if detected == 0 {
		t.Fatalf("silence never reached suspicion 2 within the fixed timeout")
	}
	if detected > fixedTimeout/4 {
		t.Fatalf("adaptive detection (%v) not meaningfully faster than fixed timeout (%v)", detected, fixedTimeout)
	}
	t.Logf("suspicion 2 after %v of silence vs %v fixed timeout", detected, fixedTimeout)
}

// TestDetectorNoFalseSuspicionOnSlowLink is the other half of the
// acceptance pair: a healthy link whose traffic is merely slow —
// steady 900ms inter-arrivals — must never cross the suspect level at
// any instant before the next arrival.
func TestDetectorNoFalseSuspicionOnSlowLink(t *testing.T) {
	d := New(Config{Period: 900 * time.Millisecond}, 0)
	now := time.Duration(0)
	const gap = 900 * time.Millisecond
	for i := 0; i < 50; i++ {
		// Probe every pre-arrival instant at 10ms resolution.
		if i > 2 { // allow the estimate to seed first
			for dt := time.Duration(0); dt < gap; dt += 10 * time.Millisecond {
				if s := d.Suspicion(now + dt); s >= 2 {
					t.Fatalf("false suspicion %d on healthy slow link at arrival %d +%v", s, i, dt)
				}
			}
		}
		now += gap
		d.Observe(now)
	}
}

func TestDetectorBootstrapAndReset(t *testing.T) {
	d := New(Config{Period: 2 * time.Second}, 0)
	if got := d.Threshold(); got != 2*time.Second {
		t.Fatalf("bootstrap threshold = %v, want 2s", got)
	}
	if s := d.Suspicion(1 * time.Second); s != 0 {
		t.Fatalf("suspicion during bootstrap grace = %d, want 0", s)
	}
	if s := d.Suspicion(5 * time.Second); s == 0 {
		t.Fatalf("bootstrap silence past threshold not suspected")
	}
	d.Observe(5 * time.Second)
	d.Reset(6 * time.Second)
	if d.Samples() != 0 {
		t.Fatalf("Reset kept samples")
	}
	if got := d.Threshold(); got != 2*time.Second {
		t.Fatalf("post-Reset threshold = %v, want bootstrap 2s", got)
	}
}

// TestDetectorFloorIsThePeriod: a first sample shorter than the
// heartbeat period (a reply landing just after the window opened) must
// not pull the threshold below the period, or the next heartbeat's
// ordinary silence would read as deep suspicion.
func TestDetectorFloorIsThePeriod(t *testing.T) {
	d := New(Config{Period: 2 * time.Second}, 0)
	d.Observe(10 * time.Millisecond)
	if got := d.Threshold(); got != 2*time.Second {
		t.Fatalf("threshold after a 10ms gap = %v, want the 2s period", got)
	}
	if s := d.Suspicion(2*time.Second + 10*time.Millisecond); s != 1 {
		t.Fatalf("suspicion one period after the last arrival = %d, want 1", s)
	}
}

func TestDetectorSuspicionCap(t *testing.T) {
	d := New(Config{Cap: 4}, 0)
	d.Observe(100 * time.Millisecond)
	d.Observe(200 * time.Millisecond)
	if s := d.Suspicion(time.Hour); s != 4 {
		t.Fatalf("suspicion = %d, want capped at 4", s)
	}
}

func TestDetectorClockSkewTolerated(t *testing.T) {
	d := New(Config{}, time.Second)
	// An arrival stamped before the window start must not poison the
	// estimate with a negative sample.
	d.Observe(500 * time.Millisecond)
	if srtt, _ := d.Estimate(); srtt < 0 {
		t.Fatalf("negative srtt after out-of-order observe: %v", srtt)
	}
	if s := d.Suspicion(600 * time.Millisecond); s < 0 {
		t.Fatalf("negative suspicion: %d", s)
	}
}
