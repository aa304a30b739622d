package main

import (
	"time"
)

// metricDef is one metric of the benchmark's contract; BENCHMARK.json
// lists exactly these names, units and directions (pinned by
// TestBenchmarkJSONMatchesDriver).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the simulator sees, measured with every
// kind of tracing and profiling off. The same set on every workload.
// A bound is about three times the widest spread over ten seeds seen on
// any workload (README.md, "HEAD baseline"); chaos sets the bounds of
// the simulated-state metrics, which for one seed repeat exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"bytes_per_op", "B", "lower", 0.06},
	{"heap_live_mb", "MiB", "lower", 0.05},
	{"virt_ms_mean", "ms", "lower", 0.05},
	{"msgs_per_op", "count", "lower", 0.22},
}

// opWallKinds are the driver-call kinds whose wall time the traced run
// reports as op.<kind>.wall_us_p50/p99; opVirtKinds those whose virtual
// latency it reports as op.<kind>.virt_ms_p50.
var (
	opWallKinds = []kind{
		kBuild, kAttach, kCreate, kStop, kCont, kKill, kStats, kSignal, kSnapshot,
		kStatus, kStopAll, kContAll, kAdvance, kAudit, kProfile, kReport,
	}
	opVirtKinds = []kind{kCreate, kStop, kKill, kSnapshot, kStatus}
)

// perLayer lists the per-layer metrics in print order. Layers are the
// repo's modules; every number is taken from outside the program.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	// Busy time: share of CPU-profile samples, innermost repo frame.
	for _, l := range cpuLayers {
		add(l+".cpu_pct", "%", "lower")
	}
	// Allocation attribution: share of allocated objects, same rule.
	for _, l := range allocLayers {
		add(l+".alloc_pct", "%", "lower")
	}
	// Work done and waste, per op, from the program's public counters.
	add("sim.events_per_op", "count", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("sim.virt_s_per_wall_s", "s/s", "higher")
	add("simnet.sends_per_op", "count", "lower")
	add("simnet.hops_per_op", "count", "lower")
	add("simnet.bytes_per_op", "B", "lower")
	add("simnet.drops_per_op", "count", "lower")
	add("simnet.dials_per_op", "count", "lower")
	add("wire.bytes_per_msg", "B", "lower")
	add("kernel.events_per_op", "count", "lower")
	add("kernel.forks_per_op", "count", "lower")
	add("daemon.queries_per_op", "count", "lower")
	add("daemon.lpm_created_per_op", "count", "lower")
	add("lpm.requests_per_op", "count", "lower")
	add("lpm.handler_reuse_ratio", "ratio", "higher")
	add("lpm.flood_forwards_per_op", "count", "lower")
	add("lpm.flood_dedup_hits", "count", "lower")
	add("lpm.flood_useful_ratio", "ratio", "higher")
	add("lpm.retries_per_op", "count", "lower")
	add("lpm.timeouts_per_op", "count", "lower")
	add("lpm.redials_per_op", "count", "lower")
	add("lpm.replays_per_op", "count", "lower")
	add("lpm.circuit_transitions_per_op", "count", "lower")
	add("lpm.siblings_opened_per_op", "count", "lower")
	add("lpm.exits", "count", "higher")
	add("recovery.siblings_lost", "count", "lower")
	add("recovery.probes", "count", "lower")
	add("recovery.ccs_announcements", "count", "lower")
	add("detect.suspects", "count", "lower")
	add("detect.closes", "count", "lower")
	add("journal.records_per_op", "count", "lower")
	add("journal.dropped_pct", "%", "lower")
	add("journal.audit_violations", "count", "lower")
	add("trace.spans_per_op", "count", "lower")
	// Virtual time waited, from the driver's samples and the program's
	// public histograms.
	add("op.virt_ms_p50", "ms", "lower")
	add("op.virt_ms_p99", "ms", "lower")
	add("lpm.rtt_ms_p50", "ms", "lower")
	add("lpm.rtt_ms_p99", "ms", "lower")
	add("simnet.transit_ms_p50", "ms", "lower")
	add("kernel.delivery_ms_p50", "ms", "lower")
	add("model.table2_err_pct", "%", "lower")
	// Driver spans.
	for _, k := range opWallKinds {
		add("op."+k.String()+".wall_us_p50", "us", "lower")
		add("op."+k.String()+".wall_us_p99", "us", "lower")
	}
	for _, k := range opVirtKinds {
		add("op."+k.String()+".virt_ms_p50", "ms", "lower")
	}
	// Unit costs of the layers' public functions.
	add("sim.step_ns", "ns", "lower")
	add("simnet.datagram_ns", "ns", "lower")
	add("wire.roundtrip_ns", "ns", "lower")
	add("journal.append_ns", "ns", "lower")
	add("detect.observe_ns", "ns", "lower")
	add("status.build_ns", "ns", "lower")
	add("journal.audit_us_per_krec", "us", "lower")
	add("profile.build_us_per_kspan", "us", "lower")
	add("metrics.snapshot_us", "us", "lower")
	// Switch ablations on the control mix.
	add("journal.tax_pct", "%", "lower")
	add("trace.tax_pct", "%", "lower")
	// Reads and failures.
	add("readback.wall_ms", "ms", "lower")
	add("readback.share_pct", "%", "lower")
	add("ops.attempted", "count", "higher")
	add("ops.refused", "count", "lower")
	add("ops.failed", "count", "lower")
	add("ops.fail_pct", "%", "lower")
	// The benchmark's own cost.
	add("bench.trace_overhead_pct", "%", "lower")
	return defs
}

// notApplicable marks a per-layer metric that has no meaning on a
// workload (model.table2_err_pct away from the Table 2 line). The
// contract wants a number for every name; the text output says n/a.
const notApplicable = -1

// paperStopMS is Table 2's stop/terminate line: milliseconds at
// network distance 0, 1 and 2.
var paperStopMS = [3]float64{30, 199, 210}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// exactMetrics derives the per-layer metrics that depend only on
// simulated state, so both the untraced and the traced run can print
// them and two same-seed passes must agree on them bit for bit.
func exactMetrics(w *workload, r *recorder, t *tally) map[string]float64 {
	ops := int64(r.attempted)
	c := t.counter
	per := func(n int64) float64 { return ratio(n, ops) }
	m := map[string]float64{
		"sim.events_per_op":              per(t.steps),
		"simnet.sends_per_op":            per(c("simnet.datagram.sent") + c("simnet.circuit.sent")),
		"simnet.hops_per_op":             per(c("simnet.hop.crossings")),
		"simnet.bytes_per_op":            per(c("simnet.datagram.bytes") + c("simnet.circuit.bytes")),
		"simnet.drops_per_op":            per(c("simnet.datagram.dropped") + c("simnet.circuit.dropped")),
		"simnet.dials_per_op":            per(c("simnet.dial.attempts")),
		"wire.bytes_per_msg":             ratio(t.counterSum("wire.bytes."), t.counterSum("wire.msgs.")),
		"kernel.events_per_op":           per(t.counterSum("kernel.events.")),
		"kernel.forks_per_op":            per(c("kernel.forks")),
		"daemon.queries_per_op":          per(c("daemon.queries")),
		"daemon.lpm_created_per_op":      per(c("daemon.lpm.created")),
		"lpm.requests_per_op":            per(c("lpm.requests_served")),
		"lpm.handler_reuse_ratio":        ratio(c("lpm.handler.reuses"), c("lpm.handler.reuses")+c("lpm.handler.forks")),
		"lpm.flood_forwards_per_op":      per(c("lpm.flood.forwarded")),
		"lpm.flood_dedup_hits":           float64(c("lpm.flood.dedup_hits")),
		"lpm.flood_useful_ratio":         ratio(c("lpm.flood.forwarded"), c("lpm.flood.forwarded")+c("lpm.flood.dedup_hits")),
		"lpm.retries_per_op":             per(c("lpm.request.retries")),
		"lpm.timeouts_per_op":            per(c("lpm.request.timeouts")),
		"lpm.redials_per_op":             per(c("lpm.request.redials")),
		"lpm.replays_per_op":             per(c("lpm.dedup.replays")),
		"lpm.circuit_transitions_per_op": per(c("lpm.circuit.transitions")),
		"lpm.siblings_opened_per_op":     per(c("lpm.siblings.opened")),
		"lpm.exits":                      float64(c("lpm.exits")),
		"recovery.siblings_lost":         float64(c("lpm.recovery.siblings_lost")),
		"recovery.probes":                float64(c("lpm.recovery.probes")),
		"recovery.ccs_announcements":     float64(c("lpm.recovery.ccs_announcements")),
		"detect.suspects":                float64(c("lpm.detector.suspects")),
		"detect.closes":                  float64(c("lpm.detector.closes")),
		"journal.records_per_op":         per(t.journalRecords),
		"journal.dropped_pct":            100 * ratio(t.journalDropped, t.journalRecords),
		"journal.audit_violations":       float64(t.auditViolations),
		"trace.spans_per_op":             per(t.traceSpans),
		"lpm.rtt_ms_p50":                 t.quantileMS("lpm.request_rtt", 0.5),
		"lpm.rtt_ms_p99":                 t.quantileMS("lpm.request_rtt", 0.99),
		"simnet.transit_ms_p50":          t.quantileMS("simnet.transit", 0.5),
		"kernel.delivery_ms_p50":         t.quantileMS("kernel.delivery", 0.5),
		"model.table2_err_pct":           notApplicable,
		"ops.attempted":                  float64(r.attempted),
		"ops.refused":                    float64(r.refused),
		"ops.failed":                     float64(r.failed()),
		"ops.fail_pct":                   100 * ratio(int64(r.failed()), ops),
	}
	all := sortedCopy(r.virt)
	m["op.virt_ms_p50"] = ms(quantile(all, 0.5))
	m["op.virt_ms_p99"] = ms(quantile(all, 0.99))
	for _, k := range opVirtKinds {
		v := r.virtOf(func(kk kind, _ uint8) bool { return kk == k })
		m["op."+k.String()+".virt_ms_p50"] = ms(quantile(v, 0.5))
	}
	if w.name == "control" || w.name == "observe" {
		// The model is validated against Table 2's stop line alone.
		var sum float64
		for d := 0; d < 3; d++ {
			d := uint8(d)
			v := r.virtOf(func(k kind, tag uint8) bool { return k == kStop && tag == d })
			got := ms(quantile(v, 0.5))
			diff := got - paperStopMS[d]
			if diff < 0 {
				diff = -diff
			}
			sum += 100 * diff / paperStopMS[d]
		}
		m["model.table2_err_pct"] = sum / 3
	}
	return m
}

// virtMeanMS is the mean virtual latency per op: the virtual time the
// closed loop spent inside PPM operations, per operation.
func virtMeanMS(r *recorder) float64 {
	var sum time.Duration
	for _, v := range r.virt {
		sum += v
	}
	if len(r.virt) == 0 {
		return 0
	}
	return ms(sum) / float64(len(r.virt))
}
