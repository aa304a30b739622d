package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ppm/internal/detord"
)

// Registry holds every metric of one simulated installation. Create one
// per Cluster with New; share it by pointer. The zero of everything is
// useful: a nil *Registry hands out nil handles whose methods no-op, so
// instrumented code never checks whether metrics are wired.
type Registry struct {
	now        func() time.Duration
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry whose snapshots are stamped with the
// virtual time reported by now. A nil now stamps snapshots with zero.
// The caller is expected to pass a closure over the simulation
// scheduler's clock — never the wall clock — so that identical runs
// produce identical snapshots.
func New(now func() time.Duration) *Registry {
	return &Registry{
		now:        now,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the counter registered under
// name. Names are dotted paths; the first component is the family the
// metric is reported under.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Handle returns the counter registered under name through *h, a slot
// the caller keeps, so a site that fires per message pays the name
// lookup once. The slot is filled on first fire, not at construction: a
// counter nothing bumped stays out of the report. The caller clears its
// slots when it is handed another registry.
func (r *Registry) Handle(h **Counter, name string) *Counter {
	if *h == nil && r != nil {
		*h = r.Counter(name)
	}
	return *h
}

// Gauge returns (creating on first use) the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the latency histogram
// registered under name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{buckets: make([]uint64, len(bucketBounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// A Counter is a monotonically non-decreasing count. Add saturates at
// the maximum uint64 instead of wrapping, so a runaway increment can
// never make a counter appear to reset.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n, saturating at math.MaxUint64.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	if c.v > math.MaxUint64-n {
		c.v = math.MaxUint64
		return
	}
	c.v += n
}

// Value reports the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// A Gauge is an instantaneous signed level (open circuits, live
// processes). Unlike a Counter it can go down. Alongside the level it
// remembers the highest level ever held (the high-watermark), so a
// report taken after a burst still shows how high the burst reached.
type Gauge struct {
	v  int64
	hi int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hi {
		g.hi = v
	}
}

// Add moves the level by d (negative d lowers it).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v += d
	if g.v > g.hi {
		g.hi = g.v
	}
}

// Value reports the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// High reports the highest level the gauge has ever held (0 on a nil
// gauge, and never below 0: the watermark starts at the initial level).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi
}

// bucketBounds are the inclusive upper edges of the histogram buckets,
// a 1-2-5 ladder from 1ms to 5s; observations above the last bound land
// in a final +Inf bucket. The ladder brackets the latencies the
// calibrated 1986 cost model produces (kernel IPC legs ~10ms, LAN RPCs
// tens to hundreds of ms, recovery sweeps seconds).
var bucketBounds = []time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
}

// A Histogram accumulates durations into fixed exponential buckets and
// tracks count, sum, min and max. Negative observations are clamped to
// zero (they can only arise from a bug in the caller's clock math, and
// must not corrupt the sum).
type Histogram struct {
	count    uint64
	sum      time.Duration
	min, max time.Duration
	buckets  []uint64
}

// NewHistogram returns a standalone histogram not owned by any
// registry, for callers that keep per-object latency series (e.g. the
// LPM's per-op RTT tracking) and surface them through their own
// reports.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, len(bucketBounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	i := sort.Search(len(bucketBounds), func(i int) bool { return bucketBounds[i] >= d })
	h.buckets[i]++
}

// Count reports how many durations have been observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// durations by linear interpolation within the containing bucket,
// clamped to the exact [min, max] envelope: a rank in the overflow
// bucket reports max, q <= 0 reports min, q >= 1 reports max, and an
// empty (or nil) histogram reports 0. The estimate is deterministic —
// it depends only on the bucket counts — and is rendered as a duration,
// never as a float.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := quantileRank(q, h.count)
	var cum uint64
	var lower time.Duration
	for i, n := range h.buckets {
		if cum+n >= rank {
			if i == len(bucketBounds) { // overflow bucket
				return h.max
			}
			return clampQuantile(interpolate(lower, bucketBounds[i], rank-cum, n), h.min, h.max)
		}
		cum += n
		if i < len(bucketBounds) {
			lower = bucketBounds[i]
		}
	}
	return h.max
}

// quantileRank converts a quantile into a 1-based observation rank.
func quantileRank(q float64, count uint64) uint64 {
	rank := uint64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	return rank
}

// interpolate places observation pos of n (1-based) linearly within the
// (lower, upper] bucket.
func interpolate(lower, upper time.Duration, pos, n uint64) time.Duration {
	if n == 0 {
		return upper
	}
	return lower + time.Duration(uint64(upper-lower)*pos/n)
}

func clampQuantile(d, min, max time.Duration) time.Duration {
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// --- snapshots ---

// InfBound marks the upper edge of the overflow bucket in a snapshot.
const InfBound = time.Duration(math.MaxInt64)

// CounterPoint is one counter's value at snapshot time.
type CounterPoint struct {
	Name  string
	Value uint64
}

// GaugePoint is one gauge's level at snapshot time.
type GaugePoint struct {
	Name  string
	Value int64
	High  int64
}

// BucketPoint is one histogram bucket: the count of observations at or
// below Le. The final bucket has Le == InfBound.
type BucketPoint struct {
	Le    time.Duration
	Count uint64
}

// HistogramPoint is one histogram's state at snapshot time.
type HistogramPoint struct {
	Name     string
	Count    uint64
	Sum      time.Duration
	Min, Max time.Duration
	Buckets  []BucketPoint
}

// Quantile estimates the q-quantile from the snapshotted buckets, with
// the same interpolation and clamping rules as Histogram.Quantile.
func (p HistogramPoint) Quantile(q float64) time.Duration {
	if p.Count == 0 {
		return 0
	}
	if q <= 0 {
		return p.Min
	}
	if q >= 1 {
		return p.Max
	}
	rank := quantileRank(q, p.Count)
	var cum uint64
	var lower time.Duration
	for _, b := range p.Buckets {
		if cum+b.Count >= rank {
			if b.Le == InfBound {
				return p.Max
			}
			return clampQuantile(interpolate(lower, b.Le, rank-cum, b.Count), p.Min, p.Max)
		}
		cum += b.Count
		if b.Le != InfBound {
			lower = b.Le
		}
	}
	return p.Max
}

// Family groups the metrics sharing a name's first dotted component.
type Family struct {
	Name       string
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Snapshot is a copy of the whole registry at one instant of virtual
// time, grouped by family and sorted lexicographically at every level,
// so equal registries always render equal snapshots.
type Snapshot struct {
	At       time.Duration
	Families []Family
}

func familyOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Snapshot copies the registry. A nil registry yields the zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if r.now != nil {
		s.At = r.now()
	}
	fams := make(map[string]*Family)
	family := func(name string) *Family {
		fn := familyOf(name)
		f, ok := fams[fn]
		if !ok {
			f = &Family{Name: fn}
			fams[fn] = f
		}
		return f
	}
	// Iterate every metric map in sorted-name order so each family's
	// point slices are born sorted and families append in name order.
	for _, name := range detord.Keys(r.counters) {
		f := family(name)
		f.Counters = append(f.Counters, CounterPoint{Name: name, Value: r.counters[name].v})
	}
	for _, name := range detord.Keys(r.gauges) {
		f := family(name)
		g := r.gauges[name]
		f.Gauges = append(f.Gauges, GaugePoint{Name: name, Value: g.v, High: g.hi})
	}
	for _, name := range detord.Keys(r.histograms) {
		h := r.histograms[name]
		hp := HistogramPoint{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		}
		for i, n := range h.buckets {
			le := InfBound
			if i < len(bucketBounds) {
				le = bucketBounds[i]
			}
			hp.Buckets = append(hp.Buckets, BucketPoint{Le: le, Count: n})
		}
		f := family(name)
		f.Histograms = append(f.Histograms, hp)
	}
	for _, fn := range detord.Keys(fams) {
		s.Families = append(s.Families, *fams[fn])
	}
	return s
}

// Family finds a family by name.
func (s Snapshot) Family(name string) (Family, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Counter looks a counter up by full name (0 if absent).
func (s Snapshot) Counter(name string) uint64 {
	f, ok := s.Family(familyOf(name))
	if !ok {
		return 0
	}
	for _, c := range f.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge looks a gauge up by full name (0 if absent).
func (s Snapshot) Gauge(name string) int64 {
	f, ok := s.Family(familyOf(name))
	if !ok {
		return 0
	}
	for _, g := range f.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// CounterSum totals every counter whose name starts with prefix — e.g.
// CounterSum("wire.msgs.") is the count of all encoded wire messages.
func (s Snapshot) CounterSum(prefix string) uint64 {
	var total uint64
	for _, f := range s.Families {
		for _, c := range f.Counters {
			if strings.HasPrefix(c.Name, prefix) {
				total += c.Value
			}
		}
	}
	return total
}

// Report renders the snapshot as the operator-facing text block used by
// `ppmtrace --metrics` and the Cluster's MetricsReport. Counters and
// gauges print one per line under their family header; gauges are
// tagged; histograms print their count/sum/min/max summary. The output
// is deterministic: it depends only on the registry's contents and the
// virtual timestamp.
func (s Snapshot) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== metrics @ T+%v ===\n", s.At)
	if len(s.Families) == 0 {
		b.WriteString("(no metrics recorded)\n")
		return b.String()
	}
	for _, f := range s.Families {
		fmt.Fprintf(&b, "[%s]\n", f.Name)
		for _, c := range f.Counters {
			fmt.Fprintf(&b, "  %-42s %d\n", c.Name, c.Value)
		}
		for _, g := range f.Gauges {
			fmt.Fprintf(&b, "  %-42s %d (gauge, hi=%d)\n", g.Name, g.Value, g.High)
		}
		for _, h := range f.Histograms {
			fmt.Fprintf(&b, "  %-42s count=%d sum=%v min=%v max=%v p50=%v p95=%v p99=%v\n",
				h.Name, h.Count, h.Sum, h.Min, h.Max,
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	return b.String()
}

// Report is shorthand for r.Snapshot().Report().
func (r *Registry) Report() string { return r.Snapshot().Report() }
