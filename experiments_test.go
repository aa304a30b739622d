package ppm_test

import (
	"math"
	"testing"
	"time"

	"ppm"
	"ppm/internal/experiments"
)

// The experiment harness must reproduce the *shape* of the paper's
// results: who wins, by roughly what factor, where the crossovers fall.
// EXPERIMENTS.md records the exact measured values.

func TestTable1ReproducesShape(t *testing.T) {
	rows, err := experiments.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11 (paper cells)", len(rows))
	}
	for _, r := range rows {
		if r.PaperMS == 0 {
			continue
		}
		rel := math.Abs(r.MeasuredMS-r.PaperMS) / r.PaperMS
		if rel > 0.30 {
			t.Errorf("%v %s: measured %.2f ms vs paper %.2f ms (%.0f%% off)",
				r.Host, r.LoadBucket, r.MeasuredMS, r.PaperMS, rel*100)
		}
	}
	// Monotone in load per host, and the Sun II worst at high load.
	byHost := map[ppm.HostType][]experiments.Table1Row{}
	for _, r := range rows {
		byHost[r.Host] = append(byHost[r.Host], r)
	}
	for ht, hr := range byHost {
		for i := 1; i < len(hr); i++ {
			if hr[i].MeasuredMS <= hr[i-1].MeasuredMS {
				t.Errorf("%v: latency not increasing with load: %+v", ht, hr)
			}
		}
	}
	sun := byHost[ppm.SunII]
	v750 := byHost[ppm.VAX750]
	if sun[3].MeasuredMS <= v750[3].MeasuredMS*1.5 {
		t.Errorf("Sun II at high load (%.1f) should be far worse than VAX 750 (%.1f)",
			sun[3].MeasuredMS, v750[3].MeasuredMS)
	}
}

func TestTable2ReproducesShape(t *testing.T) {
	rows, err := experiments.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	get := func(action string, dist int) experiments.Table2Row {
		for _, r := range rows {
			if r.Action == action && r.Distance == dist {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", action, dist)
		return experiments.Table2Row{}
	}
	within := func(r experiments.Table2Row, tol float64) {
		if r.PaperMS == 0 {
			return
		}
		rel := math.Abs(r.MeasuredMS-r.PaperMS) / r.PaperMS
		if rel > tol {
			t.Errorf("%s dist=%d: measured %.1f vs paper %.0f (%.0f%% off)",
				r.Action, r.Distance, r.MeasuredMS, r.PaperMS, rel*100)
		}
	}
	within(get("create", 0), 0.05)
	within(get("stop", 0), 0.05)
	within(get("stop", 1), 0.05)
	within(get("stop", 2), 0.05)
	within(get("terminate", 0), 0.05)
	within(get("terminate", 1), 0.05)
	within(get("terminate", 2), 0.05)
	// Remote ops cost ~6-7x local; the second hop adds only a little.
	if get("stop", 1).MeasuredMS < 5*get("stop", 0).MeasuredMS {
		t.Error("one-hop stop should cost several times a local stop")
	}
	extra := get("stop", 2).MeasuredMS - get("stop", 1).MeasuredMS
	if extra < 5 || extra > 25 {
		t.Errorf("second hop adds %.1f ms, paper adds ~11", extra)
	}
}

// TestLatencyAttributionMatchesTable2: each traced Table 2 cell the
// profiler attributes must land within 1 virtual ms of the unbroken
// cell — create less its 22 ms tool legs, as Table 2 reports it —
// because tracing may add trailer bytes to the wire but must not
// reshape the operation it measures; and a remote cell must put time on
// the wire, and more of it in dispatch.
func TestLatencyAttributionMatchesTable2(t *testing.T) {
	arows, err := experiments.RunLatencyAttribution()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(arows) != len(rows) {
		t.Fatalf("attribution has %d rows, Table 2 has %d", len(arows), len(rows))
	}
	for i, ar := range arows {
		cell := rows[i]
		if ar.Action != cell.Action || ar.Distance != cell.Distance {
			t.Fatalf("row %d: attribution %s/%d, Table 2 %s/%d", i, ar.Action, ar.Distance, cell.Action, cell.Distance)
		}
		traced := ar.TotalMS
		if ar.Action == "create" {
			traced -= 22
		}
		if math.Abs(traced-cell.MeasuredMS) > 1.0 {
			t.Errorf("%s dist=%d: traced total %.3f ms vs unbroken cell %.3f ms (>1ms apart)",
				ar.Action, ar.Distance, traced, cell.MeasuredMS)
		}
		if wire := ar.NetworkMS + ar.ReplyMS; ar.Distance > 0 && (wire <= 0 || ar.DispatchMS <= wire) {
			t.Errorf("%s dist=%d: wire %.1f ms, dispatch %.1f ms; want wire > 0 and dispatch dominating on a LAN",
				ar.Action, ar.Distance, wire, ar.DispatchMS)
		}
	}
}

func TestRemoteCreateWarmReproduces177(t *testing.T) {
	measured, paper, err := experiments.RemoteCreateWarm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(measured-paper)/paper > 0.05 {
		t.Fatalf("warm remote create %.1f ms vs paper %.0f", measured, paper)
	}
}

func TestTable3ReproducesShape(t *testing.T) {
	rows, err := experiments.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone in topology complexity.
	for i := 1; i < 4; i++ {
		if rows[i].MeasuredMS <= rows[i-1].MeasuredMS {
			t.Errorf("topology %d (%.1f) should cost more than %d (%.1f)",
				i+1, rows[i].MeasuredMS, i, rows[i-1].MeasuredMS)
		}
	}
	// T1 close to the paper's 205 ms.
	if math.Abs(rows[0].MeasuredMS-205)/205 > 0.05 {
		t.Errorf("T1 = %.1f ms, paper 205", rows[0].MeasuredMS)
	}
	// The star is only slightly costlier than a single link...
	if rows[1].MeasuredMS > rows[0].MeasuredMS*1.35 {
		t.Errorf("star (%.1f) should be close to single link (%.1f)",
			rows[1].MeasuredMS, rows[0].MeasuredMS)
	}
	// ... while the chain costs roughly twice (paper: 461/205 = 2.25).
	ratio := rows[2].MeasuredMS / rows[0].MeasuredMS
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("chain/single ratio = %.2f, paper has 2.25", ratio)
	}
}

func TestFigure2CreateCostsMoreThanFind(t *testing.T) {
	res, err := experiments.RunFigure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.CreateMS <= res.FindMS {
		t.Fatalf("ab initio create (%.1f) should exceed find (%.1f)", res.CreateMS, res.FindMS)
	}
	if res.CreateMS < 13 {
		t.Fatalf("create = %.1f ms, should include inetd+pmd processing", res.CreateMS)
	}
}

func TestOverheadNumbers(t *testing.T) {
	o := experiments.RunOverhead()
	if o.UntracedCheckNS > 10_000 {
		t.Fatalf("untraced check %.0f ns is not negligible", o.UntracedCheckNS)
	}
	if o.TracedDeliveryMS < 5 || o.TracedDeliveryMS > 8 {
		t.Fatalf("zero-load delivery %.1f ms, paper's low-load figure is 7.2", o.TracedDeliveryMS)
	}
}

func TestAblationHandlerReuse(t *testing.T) {
	reuseMS, forkMS, reuseForks, noReuseForks, err := experiments.AblationHandlerReuse()
	if err != nil {
		t.Fatal(err)
	}
	if forkMS <= reuseMS {
		t.Fatalf("fork-per-request (%.1f ms) should be slower than reuse (%.1f ms)", forkMS, reuseMS)
	}
	if noReuseForks <= reuseForks {
		t.Fatalf("forks: reuse=%d noReuse=%d", reuseForks, noReuseForks)
	}
}

func TestAblationCircuitVsDatagramAuth(t *testing.T) {
	circuitMS, datagramMS, err := experiments.AblationCircuitVsDatagramAuth()
	if err != nil {
		t.Fatal(err)
	}
	if datagramMS <= circuitMS {
		t.Fatalf("per-message auth (%.1f ms) should be slower than circuits (%.1f ms)",
			datagramMS, circuitMS)
	}
}

func TestAblationOnDemandVsFullMesh(t *testing.T) {
	onDemand, fullMesh, err := experiments.AblationOnDemandVsFullMesh(6)
	if err != nil {
		t.Fatal(err)
	}
	if onDemand >= fullMesh {
		t.Fatalf("on-demand circuits (%d) should be fewer than a full mesh (%d)",
			onDemand, fullMesh)
	}
}

func TestAblationDedupWindow(t *testing.T) {
	points, err := experiments.AblationDedupWindow([]time.Duration{
		time.Millisecond, time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	tiny, generous := points[0], points[1]
	if generous.DuplicateRecs != 0 {
		t.Fatalf("a generous window should suppress duplicates, got %d", generous.DuplicateRecs)
	}
	if generous.Suppressed == 0 {
		t.Fatal("the triangle should produce at least one suppressed duplicate")
	}
	if tiny.DuplicateRecs == 0 {
		t.Fatalf("a 1ms window should leak duplicate records on a cycle (suppressed=%d)",
			tiny.Suppressed)
	}
}

func TestAblationRelayVsDirect(t *testing.T) {
	relayFirst, directFirst, relaySteady, directSteady, err := experiments.AblationRelayVsDirect()
	if err != nil {
		t.Fatal(err)
	}
	// The first op is cheaper when relayed: no LPM query, dial and
	// hello for a new circuit.
	if relayFirst >= directFirst {
		t.Fatalf("first op: relay %.1f ms should beat direct-with-setup %.1f ms",
			relayFirst, directFirst)
	}
	// In steady state the dedicated circuit wins: one store-and-forward
	// round instead of two.
	if directSteady >= relaySteady {
		t.Fatalf("steady state: direct %.1f ms should beat relay %.1f ms",
			directSteady, relaySteady)
	}
}
