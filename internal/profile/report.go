package profile

import (
	"fmt"
	"strings"
	"time"

	"ppm/internal/detord"
)

// Options select and bound what the rendering methods show. The zero
// value means "everything".
type Options struct {
	// Op keeps only requests of one operation type; both "snapshot"
	// and "op.snapshot" spellings are accepted.
	Op string
	// Host keeps only requests originating on this host.
	Host string
	// Top keeps the N most expensive rows of the per-op table (and the
	// N slowest requests of the critical-path report). 0 means all.
	Top int
}

// matches applies the Op/Host filters to one request.
func (o Options) matches(r Request) bool {
	if o.Op != "" && r.Op != o.Op && r.Op != "op."+o.Op {
		return false
	}
	if o.Host != "" && r.Host != o.Host {
		return false
	}
	return true
}

// opStats is one aggregated per-op-type row.
type opStats struct {
	op       string
	count    int
	total    time.Duration
	phases   [numPhases]time.Duration
	max      time.Duration
	maxTrace uint64
	retries  int
	timeouts int
}

// aggregate folds the filtered requests into per-op rows, ordered by
// total time descending (then name), truncated to o.Top.
func (p *Profile) aggregate(o Options) []*opStats {
	byOp := make(map[string]*opStats)
	for _, r := range p.Requests {
		if !o.matches(r) {
			continue
		}
		st := byOp[r.Op]
		if st == nil {
			st = &opStats{op: r.Op}
			byOp[r.Op] = st
		}
		st.count++
		st.total += r.Total()
		for i, d := range r.Phases {
			st.phases[i] += d
		}
		if r.Total() > st.max || st.count == 1 {
			st.max = r.Total()
			st.maxTrace = r.Trace
		}
		st.retries += r.Retries
		st.timeouts += r.Timeouts
	}
	rows := make([]*opStats, 0, len(byOp))
	for _, op := range detord.Keys(byOp) {
		rows = append(rows, byOp[op])
	}
	detord.SortBy2(rows,
		func(s *opStats) time.Duration { return -s.total },
		func(s *opStats) string { return s.op })
	if o.Top > 0 && len(rows) > o.Top {
		rows = rows[:o.Top]
	}
	return rows
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report renders the aggregated profile: a per-op-type phase
// attribution table (means over the op's requests) followed by the
// per-host busy/queue timelines. Byte-identical across same-seed runs.
func (p *Profile) Report(o Options) string {
	var b strings.Builder
	rows := p.aggregate(o)
	var total int
	for _, r := range rows {
		total += r.count
	}
	fmt.Fprintf(&b, "=== ppmprof: %d requests, %d op types ===\n", total, len(rows))
	if len(rows) == 0 {
		b.WriteString("no requests match\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s %5s %9s %9s %8s %9s %8s %8s %8s %7s %3s %3s\n",
		"op", "count", "mean ms", "network", "reply", "dispatch", "backoff",
		"kernel", "unattr", "unattr%", "rtx", "tmo")
	for _, r := range rows {
		n := time.Duration(r.count)
		mean := r.total / n
		unattr := r.phases[PhaseUnattributed] / n
		pct := 0.0
		if mean > 0 {
			pct = 100 * float64(unattr) / float64(mean)
		}
		fmt.Fprintf(&b, "%-14s %5d %9.3f %9.3f %8.3f %9.3f %8.3f %8.3f %8.3f %6.1f%% %3d %3d\n",
			r.op, r.count, ms(mean),
			ms(r.phases[PhaseNetwork]/n), ms(r.phases[PhaseReply]/n),
			ms(r.phases[PhaseDispatch]/n), ms(r.phases[PhaseBackoff]/n),
			ms(r.phases[PhaseKernel]/n), ms(unattr), pct,
			r.retries, r.timeouts)
	}
	b.WriteString("\n")
	b.WriteString(p.timelines(o))
	return b.String()
}

// timelineBuckets is the fixed horizontal resolution of the per-host
// timelines.
const timelineBuckets = 24

// busyRamp maps a bucket's busy fraction to a glyph (5 levels).
var busyRamp = []byte(" .:=#")

// timelines renders one row per host: a busy bar (fraction of each
// bucket covered by classified work spans attributed to the host) and
// a queue-depth digit strip (peak concurrent open handler windows —
// lpm.request.* spans — originated by the host in the bucket).
func (p *Profile) timelines(o Options) string {
	lo, hi := time.Duration(-1), time.Duration(0)
	keep := make([]bool, len(p.x.Traces())) // by trace k
	for _, r := range p.Requests {
		if !o.matches(r) {
			continue
		}
		k, _ := p.x.Find(r.Trace)
		keep[k] = true
		if lo < 0 || r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
	}
	if lo < 0 || hi <= lo {
		return ""
	}
	width := hi - lo
	type lane struct {
		busy  [timelineBuckets]time.Duration
		queue [timelineBuckets]int
	}
	lanes := make(map[string]*lane)
	laneOf := func(host string) *lane {
		l := lanes[host]
		if l == nil {
			l = &lane{}
			lanes[host] = l
		}
		return l
	}
	// overlap adds a span's coverage of each bucket to acc.
	overlap := func(acc *[timelineBuckets]time.Duration, s, e time.Duration) {
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		for i := 0; i < timelineBuckets && s < e; i++ {
			bs := lo + width*time.Duration(i)/timelineBuckets
			be := lo + width*time.Duration(i+1)/timelineBuckets
			cs, ce := s, e
			if cs < bs {
				cs = bs
			}
			if ce > be {
				ce = be
			}
			if ce > cs {
				acc[i] += ce - cs
			}
		}
	}
	for _, s := range p.x.Spans {
		if k, _ := p.x.Find(s.Trace); !keep[k] || s.End <= s.Start {
			continue
		}
		if _, ok := classify(s.Name); ok {
			overlap(&laneOf(s.Host).busy, s.Start, s.End)
		}
		if strings.HasPrefix(s.Name, "lpm.request.") {
			// Peak concurrency, not coverage: count the span against
			// every bucket it overlaps.
			l := laneOf(s.Host)
			for i := 0; i < timelineBuckets; i++ {
				bs := lo + width*time.Duration(i)/timelineBuckets
				be := lo + width*time.Duration(i+1)/timelineBuckets
				if s.Start < be && s.End > bs {
					l.queue[i]++
				}
			}
		}
	}
	if len(lanes) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-host timelines: window %.3f–%.3f ms, %d buckets (busy ramp \"%s\", queue 0-9+)\n",
		ms(lo), ms(hi), timelineBuckets, string(busyRamp[1:]))
	bucket := width / timelineBuckets
	for _, host := range detord.Keys(lanes) {
		l := lanes[host]
		var busy, queue [timelineBuckets]byte
		for i := 0; i < timelineBuckets; i++ {
			frac := float64(l.busy[i]) / float64(bucket)
			lvl := int(frac * float64(len(busyRamp)-1))
			if frac > 0 && lvl == 0 {
				lvl = 1
			}
			if lvl >= len(busyRamp) {
				lvl = len(busyRamp) - 1
			}
			busy[i] = busyRamp[lvl]
			switch q := l.queue[i]; {
			case q > 9:
				queue[i] = '+'
			default:
				queue[i] = byte('0' + q)
			}
		}
		fmt.Fprintf(&b, "%-8s busy [%s]  queue [%s]\n", host, busy, queue)
	}
	return b.String()
}

// FoldedStacks renders the filtered requests in the flamegraph folded
// format: one "root;child;...;leaf weight" line per distinct stack,
// weighted by span self-time in microseconds, sorted by stack. Feed it
// to flamegraph.pl (or any folded-stacks consumer) unchanged.
func (p *Profile) FoldedStacks(o Options) string {
	weights := make(map[string]time.Duration)
	var scratch []candidate
	var stack []string
	var walk func(idx int32)
	walk = func(idx int32) {
		stack = append(stack, p.x.Spans[idx].Name)
		if self := p.selfTime(idx, &scratch); self > 0 {
			weights[strings.Join(stack, ";")] += self
		}
		for _, c := range p.x.Children(idx) {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	for _, r := range p.Requests {
		if !o.matches(r) {
			continue
		}
		k, _ := p.x.Find(r.Trace)
		for _, i := range p.x.SpansOf(k) {
			if p.x.Spans[i].Parent == 0 {
				walk(i)
			}
		}
	}
	var b strings.Builder
	for _, stk := range detord.Keys(weights) {
		fmt.Fprintf(&b, "%s %d\n", stk, weights[stk].Microseconds())
	}
	return b.String()
}

// CriticalReport renders the critical path of the slowest request of
// each op type (subject to the filters): the longest dependent chain
// with per-hop slack. Multi-hop ops — floods, snapshot fan-outs,
// status sweeps — are where the chain is interesting; a point-to-point
// op renders as its short request chain.
func (p *Profile) CriticalReport(o Options) string {
	rows := p.aggregate(o)
	var b strings.Builder
	if len(rows) == 0 {
		return "no requests match\n"
	}
	for _, r := range rows {
		path := p.CriticalPath(r.maxTrace)
		fmt.Fprintf(&b, "critical path of slowest %s: trace %d, %.3f ms end to end, %d hops\n",
			r.op, r.maxTrace, ms(r.max), len(path))
		fmt.Fprintf(&b, "  %-5s %-8s %-28s %10s %10s %9s\n",
			"span", "host", "name", "start ms", "end ms", "slack ms")
		base := time.Duration(0)
		if len(path) > 0 {
			base = path[0].Start
		}
		for _, h := range path {
			name := strings.Repeat("  ", h.Depth) + h.Name
			fmt.Fprintf(&b, "  %-5d %-8s %-28s %10.3f %10.3f %9.3f\n",
				h.Span, h.Host, name, ms(h.Start-base), ms(h.End-base), ms(h.Slack))
		}
	}
	return b.String()
}
