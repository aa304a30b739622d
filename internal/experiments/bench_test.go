package experiments

import (
	"testing"
	"time"

	"ppm"
	"ppm/internal/calib"
	"ppm/internal/kernel"
	"ppm/internal/sim"
)

// One benchmark per table and figure of the paper's evaluation, plus
// the ablations of DESIGN.md §6. Each bench runs the full simulated
// experiment; b.N measures the real cost of simulating it, while the
// reported custom metrics are the virtual-time results that correspond
// to the paper's numbers.

// BenchmarkTable1KernelMessageDelivery regenerates Table 1 (kernel->LPM
// 112-byte message delivery vs load). The reported vms/delivery metrics
// are the virtual milliseconds for the mid-load VAX 780 cell.
func BenchmarkTable1KernelMessageDelivery(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		row, err := table1Cell(ppm.VAX780, 1) // the 1<la<=2 bucket
		if err != nil {
			b.Fatal(err)
		}
		last = row.MeasuredMS
	}
	b.ReportMetric(last, "vms/delivery")
	b.ReportMetric(9.8, "paper-vms")
}

// BenchmarkTable1FullSweep regenerates every Table 1 cell (3 host types
// x 4 load buckets).
func BenchmarkTable1FullSweep(b *testing.B) {
	var rows []Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunTable1()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].MeasuredMS, "vms/sun-high-load")
		b.ReportMetric(42.7, "paper-vms")
	}
}

// BenchmarkTable2ProcessControl regenerates Table 2 (create, stop,
// terminate at topological distances 0, 1, 2).
func BenchmarkTable2ProcessControl(b *testing.B) {
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunTable2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Action == "stop" && r.Distance == 1 {
			b.ReportMetric(r.MeasuredMS, "vms/one-hop-stop")
		}
	}
	b.ReportMetric(199, "paper-vms")
}

// BenchmarkRemoteCreateWarm regenerates the Section 8 figure: 177 ms
// remote creation over a warm circuit.
func BenchmarkRemoteCreateWarm(b *testing.B) {
	var measured float64
	for i := 0; i < b.N; i++ {
		var err error
		measured, _, err = RemoteCreateWarm()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(measured, "vms/create")
	b.ReportMetric(177, "paper-vms")
}

// BenchmarkTable3SnapshotTopologies regenerates Table 3 / Figure 5:
// snapshot gathering over the four PPM topologies.
func BenchmarkTable3SnapshotTopologies(b *testing.B) {
	var rows []Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunTable3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Topology {
		case 1:
			b.ReportMetric(r.MeasuredMS, "vms/T1")
		case 4:
			b.ReportMetric(r.MeasuredMS, "vms/T4")
		}
	}
}

// BenchmarkFigure2LPMCreation regenerates the Figure 2 exchange: LPM
// creation ab initio versus finding an existing LPM.
func BenchmarkFigure2LPMCreation(b *testing.B) {
	var res Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunFigure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CreateMS, "vms/create")
	b.ReportMetric(res.FindMS, "vms/find")
}

// BenchmarkUntracedSyscallOverhead measures the real cost of the
// untraced-process fast path: the paper's "comparing to zero the value
// of a variable". This is a genuine microbenchmark of the simulated
// kernel's syscall path.
func BenchmarkUntracedSyscallOverhead(b *testing.B) {
	s := sim.NewScheduler(1)
	h := kernel.NewHost(s, "m", calib.ModelVAX780)
	p, err := h.Spawn("job", "u")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Syscall(p.PID, "read"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(calib.UntracedSyscallCheck.Nanoseconds()), "modelled-ns")
}

// BenchmarkTracedSyscallOverhead measures the traced path with full
// granularity, including event generation.
func BenchmarkTracedSyscallOverhead(b *testing.B) {
	s := sim.NewScheduler(1)
	h := kernel.NewHost(s, "m", calib.ModelVAX780)
	p, err := h.Spawn("job", "u")
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	h.SetEventSink("u", func(ppm.Event) { delivered++ })
	if err := h.Adopt(p.PID, "u"); err != nil {
		b.Fatal(err)
	}
	if err := h.SetTraceMask(p.PID, "u", kernel.TraceAll); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Syscall(p.PID, "read"); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			if err := s.RunUntilIdle(1 << 20); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := s.RunUntilIdle(1 << 22); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(calib.ModelVAX780.KernelMsgDelivery(0).Microseconds())/1000, "modelled-vms/event")
}

// BenchmarkAblationHandlerReuse compares handler reuse against
// fork-per-request (DESIGN.md ablation 3).
func BenchmarkAblationHandlerReuse(b *testing.B) {
	var reuseMS, forkMS float64
	for i := 0; i < b.N; i++ {
		var err error
		reuseMS, forkMS, _, _, err = AblationHandlerReuse()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(reuseMS, "vms/op-reuse")
	b.ReportMetric(forkMS, "vms/op-fork")
}

// BenchmarkAblationCircuitVsDatagramAuth compares authenticate-once
// circuits with per-message authentication (DESIGN.md ablation 2).
func BenchmarkAblationCircuitVsDatagramAuth(b *testing.B) {
	var circuitMS, datagramMS float64
	for i := 0; i < b.N; i++ {
		var err error
		circuitMS, datagramMS, err = AblationCircuitVsDatagramAuth()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(circuitMS, "vms/op-circuit")
	b.ReportMetric(datagramMS, "vms/op-datagram")
}

// BenchmarkAblationOnDemandVsFullMesh compares circuit counts with
// on-demand versus full-mesh interconnection (DESIGN.md ablation 1).
func BenchmarkAblationOnDemandVsFullMesh(b *testing.B) {
	var onDemand, fullMesh int64
	for i := 0; i < b.N; i++ {
		var err error
		onDemand, fullMesh, err = AblationOnDemandVsFullMesh(6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(onDemand), "conns-on-demand")
	b.ReportMetric(float64(fullMesh), "conns-full-mesh")
}

// BenchmarkAblationDedupWindow sweeps the broadcast dedup window
// (DESIGN.md ablation 4).
func BenchmarkAblationDedupWindow(b *testing.B) {
	var points []DedupWindowPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = AblationDedupWindow([]time.Duration{
			time.Millisecond, time.Second, time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 3 {
		b.ReportMetric(float64(points[0].DuplicateRecs), "dup-recs-1ms-window")
		b.ReportMetric(float64(points[2].DuplicateRecs), "dup-recs-60s-window")
	}
}

// BenchmarkAblationRelayVsDirect assesses the §7 message-routing
// policies: relayed requests versus dedicated circuits.
func BenchmarkAblationRelayVsDirect(b *testing.B) {
	var relayFirst, directFirst, relaySteady, directSteady float64
	for i := 0; i < b.N; i++ {
		var err error
		relayFirst, directFirst, relaySteady, directSteady, err = AblationRelayVsDirect()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(relayFirst, "vms/first-relay")
	b.ReportMetric(directFirst, "vms/first-direct")
	b.ReportMetric(relaySteady, "vms/steady-relay")
	b.ReportMetric(directSteady, "vms/steady-direct")
}
