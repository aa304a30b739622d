package main

import (
	"errors"
	"time"

	"ppm"
	"ppm/internal/detect"
	"ppm/internal/journal"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/status"
	"ppm/internal/wire"
)

// Unit costs time the layers' public functions on fixed inputs: the
// minimum over five batches, in nanoseconds per call. They are the
// same operations PERFORMANCE.md's ppmbench rows measure, taken here
// in the traced run so a per-layer cost sits beside the share of the
// workload that layer is.
const unitBatches = 5

// minPerCall runs batch (n calls) unitBatches times and returns the
// fastest batch's nanoseconds per call.
func minPerCall(n int, batch func(n int) error) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for b := 0; b < unitBatches; b++ {
		t0 := time.Now()
		if err := batch(n); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / float64(n), nil
}

func unitCosts(scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	n := 200_000 / scale
	if n < 100 {
		n = 100
	}
	var err error

	s := sim.NewScheduler(1)
	fn := func() {}
	if out["sim.step_ns"], err = minPerCall(n, func(n int) error {
		for i := 0; i < n; i++ {
			s.After(time.Microsecond, fn)
			s.Step()
		}
		return nil
	}); err != nil {
		return nil, err
	}

	ns := sim.NewScheduler(1)
	net := simnet.New(ns, simnet.Options{})
	for _, h := range []string{"a", "b"} {
		if err := net.AddHost(h); err != nil {
			return nil, err
		}
	}
	if err := net.AddSegment("net", "a", "b"); err != nil {
		return nil, err
	}
	delivered := 0
	if err := net.HandleDatagram("b", 100, func(simnet.Addr, []byte) { delivered++ }); err != nil {
		return nil, err
	}
	payload := []byte("u\x00\x04host\x00\x00\x00\x07\x01")
	from, to := simnet.Addr{Host: "a", Port: 5}, simnet.Addr{Host: "b", Port: 100}
	if out["simnet.datagram_ns"], err = minPerCall(n, func(n int) error {
		for i := 0; i < n; i++ {
			net.SendDatagram(from, to, payload)
			if err := ns.RunUntilIdle(16); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if delivered != n*unitBatches {
		return nil, errors.New("unit cost: datagrams went missing")
	}

	ev := wire.Envelope{
		Type: wire.MsgControl, ReqID: 42, OpID: 7,
		Body: []byte("u\x00\x04host\x00\x00\x00\x07\x01\x00\x00\x00\x00"),
	}
	ev.SetTrace(3, 4)
	enc := wire.NewEncoder(ev.EncodedSize())
	if out["wire.roundtrip_ns"], err = minPerCall(n, func(n int) error {
		for i := 0; i < n; i++ {
			enc.Reset()
			if _, err := wire.DecodeEnvelopeBorrow(ev.EncodeTo(enc)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var at time.Duration
	j := journal.New(func() time.Duration { at += time.Microsecond; return at })
	j.SetCapacity(1024)
	if out["journal.append_ns"], err = minPerCall(n, func(n int) error {
		for i := 0; i < n; i++ {
			j.Append(journal.NetSend, "host", "datagram a:1->b:2 14B")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	now := time.Duration(0)
	d := detect.New(detect.Config{}, now)
	sink := 0
	if out["detect.observe_ns"], err = minPerCall(n, func(n int) error {
		for i := 0; i < n; i++ {
			now += 125 * time.Millisecond
			d.Observe(now)
			sink += d.Suspicion(now + 50*time.Millisecond)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if sink < 0 {
		return nil, errors.New("unit cost: suspicion went negative")
	}

	// status.build_ns: one host's status report assembled from a warm
	// two-host installation's LPM.
	c, err := ppm.NewCluster(ppm.ClusterConfig{Hosts: []ppm.HostSpec{{Name: "a"}, {Name: "b"}}})
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	sess, err := c.Attach(user, "a")
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"a", "b", "a", "b"} {
		if _, err := sess.Run(h, "job"); err != nil {
			return nil, err
		}
	}
	var rep status.Report
	mgr := sess.Manager()
	mgr.BuildStatus(&rep)
	if out["status.build_ns"], err = minPerCall(n/10+1, func(n int) error {
		for i := 0; i < n; i++ {
			mgr.BuildStatus(&rep)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// readCosts times the read side on a live installation whose journal
// and tracer the workload has filled: the audit per thousand journal
// records, the profile build per thousand spans, one metrics snapshot.
func readCosts(c *ppm.Cluster) (map[string]float64, error) {
	out := make(map[string]float64)
	records := c.Journal().Len()
	spans := len(c.Tracer().Spans())
	if records == 0 || spans == 0 {
		return nil, errors.New("read costs: the epilogue left no journal records or no spans")
	}
	best := func(fn func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < unitBatches; i++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); d < b {
				b = d
			}
		}
		return b
	}
	requests := 0
	out["journal.audit_us_per_krec"] = us(best(func() { c.JournalAudit() })) / (float64(records) / 1000)
	out["profile.build_us_per_kspan"] = us(best(func() { requests = len(c.Profile().Requests) })) / (float64(spans) / 1000)
	out["metrics.snapshot_us"] = us(best(func() { c.MetricsSnapshot() }))
	if requests == 0 {
		return nil, errors.New("read costs: the profile attributed no requests")
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
