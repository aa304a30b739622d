package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ppm"
)

// kind names one sort of driver call. The span file and the
// op.<kind>.* metrics use these names.
type kind uint8

const (
	kBuild kind = iota
	kAttach
	kCreate
	kStop
	kCont
	kKill
	kStats
	kSignal
	kSnapshot
	kStatus
	kStopAll
	kContAll
	kAdvance
	kFault
	kAudit
	kProfile
	kReport
	kEpisode
	nKinds
)

var kindNames = [nKinds]string{
	"build", "attach", "create", "stop", "cont", "kill", "stats", "signal",
	"snapshot", "status", "stopall", "contall", "advance", "fault", "audit",
	"profile", "report", "episode",
}

func (k kind) String() string { return kindNames[k] }

// isOp reports whether calls of this kind are PPM operations (calls
// into Session or Cluster.Attach): the unit of ops_per_s and of every
// per-op ratio. The other kinds are the driver's own scaffolding
// (construction, clock, fault injection, observation reads).
func (k kind) isOp() bool { return k >= kAttach && k <= kContAll }

// isRead reports whether calls of this kind read observation state
// back (readback.wall_ms).
func (k kind) isRead() bool { return k == kAudit || k == kProfile || k == kReport }

// span is one driver call in the traced pass: both clocks, and the
// episode span that contains it (-1 at top level). All spans of one
// pass share the pass's run id, written once in the span file header.
type span struct {
	kind         kind
	tag          uint8
	failed       bool
	parent       int32
	wall0, wall1 int64 // ns since the pass began
	virt0, virt1 int64 // ns of the installation's virtual clock
}

// mark is the start of a driver call.
type mark struct {
	virt int64
	wall int64
}

// recorder collects what one pass over a workload observes from
// outside the program: per-op virtual latency (always), driver spans
// and read-back wall time (traced pass only), and the attempted /
// refused tallies.
type recorder struct {
	traced bool
	t0     time.Time
	spans  []span
	parent int32

	// One entry per op, in issue order; preallocated so the timed
	// section's allocation counts are the program's, not the driver's.
	// A recorder made with maxOps 0 (set-up, scratch) keeps none.
	keepOps bool
	virt    []time.Duration
	kinds   []kind
	tags    []uint8

	attempted int // ops issued
	refused   int // chaos: ops that returned an error while faults were injected
	// episodeChecks counts chaos episodes whose post-heal consistency
	// check or journal audit failed; each is one failed op of kind
	// episode_check in ops.failed.
	episodeChecks int

	readWall time.Duration // traced: wall time inside audit/profile/report calls
	wall     time.Duration // wall time of the whole timed section
}

func newRecorder(traced bool, maxOps, maxSpans int) *recorder {
	r := &recorder{traced: traced, parent: -1, keepOps: maxOps > 0}
	if r.keepOps {
		r.virt = make([]time.Duration, 0, maxOps)
		r.kinds = make([]kind, 0, maxOps)
		r.tags = make([]uint8, 0, maxOps)
	}
	if traced {
		r.spans = make([]span, 0, maxSpans)
	}
	r.start()
	return r
}

// start opens the timed section, stop closes it.
func (r *recorder) start() { r.t0 = time.Now() }
func (r *recorder) stop()  { r.wall = time.Since(r.t0) }

// failed is the contract's failure count: ops that returned an error
// plus episodes that failed their output check.
func (r *recorder) failed() int { return r.refused + r.episodeChecks }

// opsPerSecond is ops attempted per wall second of the timed section.
func (r *recorder) opsPerSecond() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.attempted) / r.wall.Seconds()
}

// begin marks the start of a driver call against c (nil before the
// installation exists: the build call).
func (r *recorder) begin(c *ppm.Cluster) mark {
	var m mark
	if c != nil {
		m.virt = int64(c.Now())
	}
	if r.traced {
		m.wall = int64(time.Since(r.t0))
	}
	return m
}

// end closes a driver call. For ops it records the virtual latency and
// counts the attempt; the caller decides what an error means.
func (r *recorder) end(m mark, c *ppm.Cluster, k kind, tag uint8, err error) {
	var v1 int64
	if c != nil {
		v1 = int64(c.Now())
	}
	if k.isOp() {
		r.attempted++
		if r.keepOps {
			r.virt = append(r.virt, time.Duration(v1-m.virt))
			r.kinds = append(r.kinds, k)
			r.tags = append(r.tags, tag)
		}
	}
	if !r.traced {
		return
	}
	w1 := int64(time.Since(r.t0))
	if k.isRead() {
		r.readWall += time.Duration(w1 - m.wall)
	}
	r.spans = append(r.spans, span{
		kind: k, tag: tag, failed: err != nil, parent: r.parent,
		wall0: m.wall, wall1: w1, virt0: m.virt, virt1: v1,
	})
}

// beginEpisode opens an episode span; calls until endEpisode are its
// children.
func (r *recorder) beginEpisode() int32 {
	if !r.traced {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kEpisode, parent: -1, wall0: int64(time.Since(r.t0))})
	r.parent = id
	return id
}

func (r *recorder) endEpisode(id int32, c *ppm.Cluster, failed bool) {
	if !r.traced {
		return
	}
	s := &r.spans[id]
	s.wall1 = int64(time.Since(r.t0))
	s.virt1 = int64(c.Now())
	s.failed = failed
	r.parent = -1
}

// --- order statistics ---

// quantile returns the q-quantile of sorted values by the nearest-rank
// rule (an observed value, never an interpolation); 0 of none.
func quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)]
}

func rankOf(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// virtOf returns the sorted virtual latencies of the ops matching
// keep.
func (r *recorder) virtOf(keep func(k kind, tag uint8) bool) []time.Duration {
	var out []time.Duration
	for i, v := range r.virt {
		if keep(r.kinds[i], r.tags[i]) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// wallOf returns the sorted wall durations of the recorders' spans of
// one kind.
func wallOf(k kind, recs ...*recorder) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		for i := range r.spans {
			if r.spans[i].kind == k {
				out = append(out, time.Duration(r.spans[i].wall1-r.spans[i].wall0))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// episodeSelf returns the sorted self times of the episode spans: each
// episode's wall duration minus its children's.
func (r *recorder) episodeSelf() []time.Duration {
	self := make(map[int32]time.Duration)
	for i := range r.spans {
		s := &r.spans[i]
		d := time.Duration(s.wall1 - s.wall0)
		if s.kind == kEpisode {
			self[int32(i)] += d
		} else if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	out := make([]time.Duration, 0, len(self))
	for i := range r.spans {
		if r.spans[i].kind == kEpisode {
			out = append(out, self[int32(i)])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeSpans writes the spans of the given recorders (set-up first,
// then the timed section) as tab-separated text: a header naming the
// run, then one line per span in creation order. Each recorder's wall
// clock starts at its own zero.
func writeSpans(path, runID string, recs ...*recorder) (err error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# ppmload spans run=%s\n", runID)
	fmt.Fprintln(w, "# id\tparent\tphase\tkind\ttag\tfailed\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns")
	base := 0
	for phase, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			parent := int(s.parent)
			if parent >= 0 {
				parent += base
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
				base+i, parent, phase, s.kind, s.tag, btoi(s.failed), s.wall0, s.wall1, s.virt0, s.virt1)
		}
		base += len(r.spans)
	}
	return w.Flush()
}
