package main

import (
	"strconv"
	"strings"
	"time"

	"ppm"
	"ppm/internal/detord"
	"ppm/internal/metrics"
)

// tally accumulates the program's own public counters over the timed
// section: the metrics registry, the scheduler's step count and the
// journal's append count. Everything in it is simulated state, so for
// a fixed seed it repeats exactly.
type tally struct {
	counters map[string]int64
	hists    map[string]*histAcc

	steps           int64 // scheduler events fired
	virtual         time.Duration
	journalRecords  int64 // records appended
	journalDropped  int64 // records evicted from the ring before a read
	traceSpans      int64 // spans the program's tracer recorded
	auditViolations int64
}

type histAcc struct {
	count    int64
	sum      time.Duration
	min, max time.Duration
	les      []time.Duration
	buckets  []int64
}

func newTally() *tally {
	return &tally{counters: make(map[string]int64), hists: make(map[string]*histAcc)}
}

// add folds the installation's cumulative counters in with the given
// sign: -1 when the timed section starts on a persistent installation,
// +1 when it (or an episode's whole installation) ends.
func (t *tally) add(c *ppm.Cluster, sign int64) {
	snap := c.MetricsSnapshot()
	for _, f := range snap.Families {
		for _, cp := range f.Counters {
			t.counters[cp.Name] += sign * int64(cp.Value)
		}
		for _, hp := range f.Histograms {
			t.addHist(hp, sign)
		}
	}
	t.steps += sign * int64(c.Scheduler().Steps())
	t.virtual += time.Duration(sign) * c.Now().Duration()
	if j := c.Journal(); j != nil {
		t.journalRecords += sign * (int64(j.Len()) + int64(j.Dropped()))
	}
}

func (t *tally) addHist(hp metrics.HistogramPoint, sign int64) {
	h := t.hists[hp.Name]
	if h == nil {
		h = &histAcc{min: hp.Min, max: hp.Max}
		for _, b := range hp.Buckets {
			h.les = append(h.les, b.Le)
		}
		h.buckets = make([]int64, len(hp.Buckets))
		t.hists[hp.Name] = h
	}
	h.count += sign * int64(hp.Count)
	h.sum += time.Duration(sign) * hp.Sum
	for i, b := range hp.Buckets {
		h.buckets[i] += sign * int64(b.Count)
	}
	if hp.Count > 0 {
		if hp.Min < h.min {
			h.min = hp.Min
		}
		if hp.Max > h.max {
			h.max = hp.Max
		}
	}
}

func (t *tally) counter(name string) int64 { return t.counters[name] }

// counterSum totals every counter whose name starts with prefix.
func (t *tally) counterSum(prefix string) int64 {
	var total int64
	for name, v := range t.counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// quantileMS estimates a quantile of one of the program's public
// histograms over the timed section, in virtual milliseconds, with the
// registry's own interpolation rule.
func (t *tally) quantileMS(name string, q float64) float64 {
	h := t.hists[name]
	if h == nil || h.count <= 0 {
		return 0
	}
	hp := metrics.HistogramPoint{
		Name: name, Count: uint64(h.count), Sum: h.sum, Min: h.min, Max: h.max,
	}
	for i, le := range h.les {
		hp.Buckets = append(hp.Buckets, metrics.BucketPoint{Le: le, Count: uint64(h.buckets[i])})
	}
	return ms(hp.Quantile(q))
}

// exact renders every accumulated count as sorted "name value" pairs:
// the fingerprint two same-seed passes must agree on.
func (t *tally) exact() []string {
	out := make([]string, 0, len(t.counters)+2*len(t.hists)+6)
	for _, name := range detord.Keys(t.counters) {
		out = append(out, name+" "+itoa(t.counters[name]))
	}
	for _, name := range detord.Keys(t.hists) {
		h := t.hists[name]
		out = append(out, name+".count "+itoa(h.count), name+".sum_ns "+itoa(int64(h.sum)))
	}
	out = append(out,
		"sim.steps "+itoa(t.steps),
		"sim.virtual_ns "+itoa(int64(t.virtual)),
		"journal.records "+itoa(t.journalRecords),
		"journal.dropped "+itoa(t.journalDropped),
		"trace.spans "+itoa(t.traceSpans),
		"journal.audit_violations "+itoa(t.auditViolations),
	)
	return out
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
