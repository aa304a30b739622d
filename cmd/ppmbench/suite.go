package main

import (
	"fmt"
	"testing"
	"time"

	"ppm"
	"ppm/internal/detect"
	"ppm/internal/journal"
	"ppm/internal/profile"
	"ppm/internal/scenario"
	"ppm/internal/sim"
	"ppm/internal/simnet"
	"ppm/internal/wire"
)

// A suiteBench is one curated micro-benchmark. The name is the stable
// identifier recorded in BENCH_<n>.json; renaming one is a breaking
// change for --compare (the old name reads as MISSING), so names
// change only together with a note in PERFORMANCE.md.
type suiteBench struct {
	name string // stable identifier ("layer/operation")
	desc string // one line, shown by -list and cataloged in PERFORMANCE.md
	fn   func(b *testing.B)
}

// suite is the curated benchmark set, in layer order: the framing hot
// path, the scheduler core, the network delivery path, and the
// end-to-end PPM scenarios that tie them together.
var suite = []suiteBench{
	{"wire/encode", "frame an op-less envelope through a reused encoder", benchWireEncode},
	{"wire/decode", "borrow-decode an op-less frame", benchWireDecode},
	{"wire/roundtrip", "encode then borrow-decode a frame with both trailers", benchWireRoundTrip},
	{"sim/step", "schedule and fire one scheduler event in the steady state", benchSimStep},
	{"detect/observe", "one failure-detector arrival observation plus a suspicion read", benchDetectObserve},
	{"simnet/datagram", "one-hop datagram delivery, including the scheduler drain", benchSimnetDatagram},
	{"lpm/dispatch", "remote stop+continue round trip over a warm sibling circuit", benchLPMDispatch},
	{"journal/append", "append one record to a saturated flight-recorder ring", benchJournalAppend},
	{"snapshot/fanout", "distributed snapshot across a warm 8-host installation", benchSnapshotFanout},
	{"status/gather", "cluster-wide status sweep across a warm 8-host installation", benchStatusGather},
	{"profile/build", "attribute a traced 8-host workload's span table (post-hoc analysis)", benchProfileBuild},
}

// --- wire ---

func opLessEnvelope() wire.Envelope {
	return wire.Envelope{
		Type:  wire.MsgControl,
		ReqID: 42,
		Body:  []byte("u\x00\x04host\x00\x00\x00\x07\x01\x00\x00\x00\x00"),
	}
}

func benchWireEncode(b *testing.B) {
	b.ReportAllocs()
	ev := opLessEnvelope()
	enc := wire.NewEncoder(ev.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		ev.EncodeTo(enc)
	}
}

func benchWireDecode(b *testing.B) {
	b.ReportAllocs()
	frame := opLessEnvelope().Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeEnvelopeBorrow(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireRoundTrip(b *testing.B) {
	b.ReportAllocs()
	ev := opLessEnvelope()
	ev.OpID = 7
	ev.SetTrace(3, 4)
	enc := wire.NewEncoder(ev.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		frame := ev.EncodeTo(enc)
		if _, err := wire.DecodeEnvelopeBorrow(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sim ---

func benchSimStep(b *testing.B) {
	b.ReportAllocs()
	s := sim.NewScheduler(1)
	fn := func() {}
	s.After(time.Microsecond, fn) // warm the event free list
	s.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// --- detect ---

// benchDetectObserve measures the accrual detector's per-message cost:
// every circuit arrival pays one Observe (Jacobson/Karels integer
// filter step) and every linktest tick pays one Suspicion read, so
// this pair is the detector's entire steady-state hot path. The
// zero-alloc property is pinned by TestDetectorStepZeroAllocs in
// internal/detect.
func benchDetectObserve(b *testing.B) {
	b.ReportAllocs()
	now := time.Duration(0)
	d := detect.New(detect.Config{}, now)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 125 * time.Millisecond
		d.Observe(now)
		sink += d.Suspicion(now + 50*time.Millisecond)
	}
	b.StopTimer()
	if sink < 0 {
		b.Fatal("suspicion went negative")
	}
}

// --- simnet ---

func benchSimnetDatagram(b *testing.B) {
	b.ReportAllocs()
	s := sim.NewScheduler(1)
	n := simnet.New(s, simnet.Options{})
	for _, h := range []string{"a", "b"} {
		if err := n.AddHost(h); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.AddSegment("net", "a", "b"); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	if err := n.HandleDatagram("b", 100, func(simnet.Addr, []byte) { delivered++ }); err != nil {
		b.Fatal(err)
	}
	payload := []byte("u\x00\x04host\x00\x00\x00\x07\x01")
	from, to := simnet.Addr{Host: "a", Port: 5}, simnet.Addr{Host: "b", Port: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendDatagram(from, to, payload)
		if err := s.RunUntilIdle(16); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d datagrams", delivered, b.N)
	}
	b.ReportMetric(1, "msgs/op")
}

// --- end-to-end PPM scenarios ---

// timedLoop is the measured part of an end-to-end row: b.N runs of
// iter on the clock, inside scenario.Measure so the row also reports
// the wire messages each iteration cost. The measurement's own metric
// snapshots fall outside the timed (and allocation-counted) region.
func timedLoop(b *testing.B, c *ppm.Cluster, iter func() error) {
	cost, err := scenario.Measure(c, func() error {
		b.ResetTimer()
		defer b.StopTimer()
		for i := 0; i < b.N; i++ {
			if err := iter(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cost.Msgs)/float64(b.N), "msgs/op")
}

func benchLPMDispatch(b *testing.B) {
	b.ReportAllocs()
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts("a", "b")}, "u", "a")
	if err != nil {
		b.Fatal(err)
	}
	id, err := sess.Run("b", "job") // warms the a<->b sibling circuit
	if err != nil {
		b.Fatal(err)
	}
	timedLoop(b, c, func() error {
		if err := sess.Stop(id); err != nil {
			return err
		}
		return sess.Foreground(id)
	})
}

func benchJournalAppend(b *testing.B) {
	b.ReportAllocs()
	var t time.Duration
	j := journal.New(func() time.Duration { t += time.Microsecond; return t })
	j.SetCapacity(1024)
	for i := 0; i < 1024; i++ { // saturate the ring: appends now evict
		j.Append(journal.NetSend, "host", "datagram a:1->b:2 14B")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(journal.NetSend, "host", "datagram a:1->b:2 14B")
	}
}

// star8 builds the installation the snapshot and status rows share:
// eight hosts, a root on h0 and one worker "w" on each of h1..h7.
func star8(b *testing.B) (*ppm.Cluster, *ppm.Session) {
	names := scenario.Numbered("h%d", 0, 8)
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "u", "h0")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := scenario.Star(sess, names, "root", scenario.Named("w")); err != nil {
		b.Fatal(err)
	}
	return c, sess
}

func benchSnapshotFanout(b *testing.B) {
	b.ReportAllocs()
	c, sess := star8(b)
	if _, err := sess.Snapshot(); err != nil { // warm every circuit
		b.Fatal(err)
	}
	timedLoop(b, c, func() error {
		_, err := sess.Snapshot()
		return err
	})
}

func benchStatusGather(b *testing.B) {
	b.ReportAllocs()
	c, sess := star8(b)
	if _, err := sess.Status(); err != nil { // warm every circuit and report buffer
		b.Fatal(err)
	}
	timedLoop(b, c, func() error {
		sw, err := sess.Status()
		if err == nil && (len(sw.Reports) != 8 || len(sw.Unreachable) != 0) {
			err = fmt.Errorf("sweep covered %d/8 hosts, unreachable %v", len(sw.Reports), sw.Unreachable)
		}
		return err
	})
}

// --- profile ---

// benchProfileBuild measures the analyzer itself, not the run: an
// 8-host workload (creates, control round trips, a snapshot flood, a
// status sweep) is traced once during setup, then each iteration
// re-attributes the recorded span table and journal from scratch. The
// per-span cost of Build is additionally pinned by an AllocsPerRun
// test in internal/profile.
func benchProfileBuild(b *testing.B) {
	b.ReportAllocs()
	names := scenario.Numbered("h%d", 0, 8)
	c, sess, err := scenario.Attach(ppm.ClusterConfig{Hosts: scenario.Hosts(names...)}, "u", "h0")
	if err != nil {
		b.Fatal(err)
	}
	c.Tracer().SetMaxSpans(1 << 16)
	c.Tracer().Enable()
	workers, err := scenario.Star(sess, names, "root", scenario.Named("w"))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workers {
		if err := sess.Stop(w); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sess.ContinueAll(); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Status(); err != nil {
		b.Fatal(err)
	}
	c.Tracer().Disable()
	spans := c.Tracer().Spans()
	records := c.Journal().Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.Build(spans, records)
		if len(p.Requests) == 0 {
			b.Fatal("profiled zero requests")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(spans)), "spans")
}
