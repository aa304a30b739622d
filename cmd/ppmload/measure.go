package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ppm"
)

const (
	// setupGroups is how many set-up samples a timed run takes; setup_s
	// is their median.
	setupGroups = 5
	// tracedDivisor: the traced run covers a quarter of the schedule,
	// twice (once untraced, as the overhead baseline), so that with its
	// ablations and unit costs it costs about what a timed run costs.
	tracedDivisor = 4
	// cpuProfileHz is the traced pass's sampling rate. runtime/pprof's
	// own 100 Hz gives a 3 s pass a few hundred samples, too few to
	// split over 19 layers.
	cpuProfileHz = 1000
	// memProfileRate is the traced pass's allocation sampling rate: one
	// sample per 16 KiB allocated.
	memProfileRate = 16 << 10
	// ablationSegment is the length of one ABAB segment of the switch
	// ablations, in ops of the control mix.
	ablationSegment = 50_000
)

// runConfig is one validated invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	scale   int
	traced  bool
	spans   string // span file path (traced run)
	digest  bool   // fold every journal into report.digest (tests)
}

// units is the frozen size of the timed section.
func (cfg runConfig) units() int {
	n := cfg.w.perSecond * float64(cfg.seconds) / float64(cfg.scale)
	if cfg.traced {
		n /= tracedDivisor
	}
	u := int(n+0.5) / cfg.w.cycle * cfg.w.cycle
	if u < 4 {
		u = 4
	}
	return u
}

func (cfg runConfig) setupBuilds() int {
	n := cfg.w.setupBuilds / cfg.scale
	if n < 1 {
		n = 1
	}
	return n
}

type metricValue struct {
	def   metricDef
	value float64
}

// report is everything one run prints.
type report struct {
	cfg       runConfig
	metrics   []metricValue      // the contract's metrics for this run
	exact     map[string]float64 // simulated-state metrics, printed by both runs
	notes     []string
	attempted int
	failed    int
	digest    uint64
	dirty     []dirtyEpisode
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp runs the set-up phase: groups samples of setupBuilds
// back-to-back build-and-warm cycles each. The last installation built
// is kept; building in descending index order makes that always
// installation 0, whatever the number of groups.
func setUp(cfg runConfig, groups int, rec *recorder) (*installation, []time.Duration, error) {
	p := &pass{seed: cfg.seed, rec: rec, tal: newTally()}
	builds := cfg.setupBuilds()
	var inst *installation
	samples := make([]time.Duration, 0, groups)
	i := groups * builds
	for g := 0; g < groups; g++ {
		t0 := time.Now()
		for b := 0; b < builds; b++ {
			i--
			var err error
			if inst, err = cfg.w.build(p, i); err != nil {
				return nil, nil, fmt.Errorf("set-up build %d: %w", i, err)
			}
		}
		samples = append(samples, time.Since(t0))
	}
	if cfg.w.unit == "episodes" {
		inst = nil // every episode builds its own
	}
	return inst, samples, nil
}

// passResult is one timed section.
type passResult struct {
	p          *pass
	mallocs    uint64
	bytes      uint64
	gcCycles   uint32
	heapLive   uint64
	cpu        map[string]float64
	cpuSamples int64
	alloc      map[string]float64
}

// timedPass runs the workload's timed section over inst.
func timedPass(cfg runConfig, inst *installation, rec *recorder, heapBase uint64) (*passResult, error) {
	p := &pass{seed: cfg.seed, rec: rec, tal: newTally()}
	if cfg.digest {
		p.digest = fnv.New64a()
	}
	res := &passResult{p: p}
	var (
		prof        bytes.Buffer
		allocBefore []runtime.MemProfileRecord
	)
	if rec.traced {
		allocBefore = allocProfile()
		// StartCPUProfile fixes 100 Hz; setting the rate first makes
		// its own call a no-op (the runtime says so once on stderr).
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	runtime.GC() // every pass starts from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.start()
	err := cfg.w.run(p, inst, cfg.units())
	rec.stop()
	runtime.ReadMemStats(&m1)
	if rec.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	// Retention: what the installation still holds once the garbage
	// is gone — journal ring, history, reply cache, process tables.
	live := heapAfterGC()
	if live > heapBase {
		res.heapLive = live - heapBase
	}
	runtime.KeepAlive(p.live)
	runtime.KeepAlive(inst)
	if rec.traced {
		res.alloc = allocShares(allocEstimates(allocBefore, allocProfile(), memProfileRate))
		if res.cpu, res.cpuSamples, err = cpuShares(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func median(d []time.Duration) time.Duration { return quantile(sortedCopy(d), 0.5) }

// maxOps bounds the ops of the timed section, to size the recorder.
func (cfg runConfig) maxOps() int { return cfg.units()*cfg.w.opsPerUnit + 16 }

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(cfg runConfig) (*report, error) {
	rec := newRecorder(false, cfg.maxOps(), 0)
	setupRec := newRecorder(false, 0, 0)
	base := heapAfterGC()
	inst, samples, err := setUp(cfg, setupGroups, setupRec)
	if err != nil {
		return nil, err
	}
	res, err := timedPass(cfg, inst, rec, base)
	if err != nil {
		return nil, err
	}
	ops := float64(rec.attempted)
	if ops == 0 {
		return nil, errors.New("the timed section issued no ops")
	}
	values := map[string]float64{
		"setup_s":       median(samples).Seconds(),
		"ops_per_s":     rec.opsPerSecond(),
		"allocs_per_op": float64(res.mallocs) / ops,
		"bytes_per_op":  float64(res.bytes) / ops,
		"heap_live_mb":  float64(res.heapLive) / (1 << 20),
		"virt_ms_mean":  virtMeanMS(rec),
		"msgs_per_op":   ratio(res.p.tal.counterSum("wire.msgs."), int64(rec.attempted)),
	}
	rep := &report{
		cfg: cfg, exact: exactMetrics(cfg.w, rec, res.p.tal),
		attempted: rec.attempted, failed: rec.failed(), digest: res.p.sum(), dirty: res.p.dirty,
	}
	for _, d := range endToEnd {
		rep.metrics = append(rep.metrics, metricValue{d, values[d.name]})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rep.notes = append(rep.notes,
		fmt.Sprintf("timed section: %.3f s wall, %d ops attempted, %d failed, %d GC cycles",
			rec.wall.Seconds(), rec.attempted, rec.failed(), res.gcCycles),
		fmt.Sprintf("set-up: %d samples of %d builds: %v", len(samples), cfg.setupBuilds(), samples),
		fmt.Sprintf("virtual latency: %d samples, p50 %.4f ms, p99 %.4f ms (%d samples beyond it)",
			len(rec.virt), rep.exact["op.virt_ms_p50"], rep.exact["op.virt_ms_p99"], len(rec.virt)-rankOf(len(rec.virt), 0.99)-1),
	)
	return rep, nil
}

// runTraced is the traced run: the per-layer metrics. It covers a
// quarter of the schedule twice — untraced, then with driver spans, a
// CPU profile and an allocation profile — and requires the two passes
// to agree on every simulated number before it reports anything.
func runTraced(cfg runConfig) (*report, error) {
	runtime.MemProfileRate = 0

	recA := newRecorder(false, cfg.maxOps(), 0)
	setupA := newRecorder(false, 0, 0)
	instA, _, err := setUp(cfg, 1, setupA)
	if err != nil {
		return nil, err
	}
	resA, err := timedPass(cfg, instA, recA, 0)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	instA = nil

	runtime.MemProfileRate = memProfileRate
	recB := newRecorder(true, cfg.maxOps(), 2*cfg.maxOps())
	setupB := newRecorder(true, 0, 1024)
	base := heapAfterGC()
	instB, _, err := setUp(cfg, 1, setupB)
	if err != nil {
		return nil, err
	}
	resB, err := timedPass(cfg, instB, recB, base)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	runtime.MemProfileRate = 0
	if err := sameSimulation(resA.p, resB.p); err != nil {
		return nil, fmt.Errorf("the untraced and the traced pass of seed %d disagree: %w", cfg.seed, err)
	}

	// Read-side costs on the live installation, then the fixed-input
	// unit costs and the switch ablations.
	ep := &pass{seed: cfg.seed, rec: newRecorder(false, 0, 0), tal: newTally()}
	live, err := cfg.w.epilogue(ep, instB)
	if err != nil {
		return nil, fmt.Errorf("epilogue: %w", err)
	}
	reads, err := readCosts(live)
	if err != nil {
		return nil, err
	}
	units, err := unitCosts(cfg.scale)
	if err != nil {
		return nil, err
	}
	journalTax, traceTax, err := ablations(cfg)
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}

	values := exactMetrics(cfg.w, recB, resB.p.tal)
	wall := recB.wall
	opsA, opsB := recA.opsPerSecond(), recB.opsPerSecond()
	for l, v := range resB.cpu {
		values[l+".cpu_pct"] = v
	}
	for l, v := range resB.alloc {
		values[l+".alloc_pct"] = v
	}
	values["sim.events_per_s"] = float64(resB.p.tal.steps) / wall.Seconds()
	values["sim.virt_s_per_wall_s"] = resB.p.tal.virtual.Seconds() / wall.Seconds()
	for _, k := range opWallKinds {
		d := wallOf(k, setupB, recB)
		values["op."+k.String()+".wall_us_p50"] = us(quantile(d, 0.5))
		values["op."+k.String()+".wall_us_p99"] = us(quantile(d, 0.99))
	}
	for name, v := range reads {
		values[name] = v
	}
	for name, v := range units {
		values[name] = v
	}
	values["journal.tax_pct"] = journalTax
	values["trace.tax_pct"] = traceTax
	values["readback.wall_ms"] = ms(recB.readWall)
	values["readback.share_pct"] = 100 * recB.readWall.Seconds() / wall.Seconds()
	values["bench.trace_overhead_pct"] = 100 * (opsA/opsB - 1)

	rep := &report{
		cfg: cfg, exact: values,
		attempted: recB.attempted, failed: recB.failed(), digest: resB.p.sum(), dirty: resB.p.dirty,
	}
	for _, d := range perLayer {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		rep.metrics = append(rep.metrics, metricValue{d, v})
	}
	var cpuSum float64
	for _, l := range cpuLayers {
		cpuSum += resB.cpu[l]
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced pass: %.3f s wall, %d ops, %d driver spans, %d ms of cpu samples, cpu shares sum to %.2f%%",
			wall.Seconds(), recB.attempted, len(recB.spans)+len(setupB.spans), resB.cpuSamples/1e6, cpuSum),
		fmt.Sprintf("untraced pass of the same schedule: %.1f ops/s; traced: %.1f ops/s", opsA, opsB),
	)
	if self := recB.episodeSelf(); len(self) > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("episode self time (span minus children): p50 %.1f us over %d episodes",
			us(quantile(self, 0.5)), len(self)))
	}
	if cfg.spans != "" {
		runID := fmt.Sprintf("%s-seed%d-units%d", cfg.w.name, cfg.seed, cfg.units())
		if err := writeSpans(cfg.spans, runID, setupB, recB); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		rep.notes = append(rep.notes, "driver spans written to "+cfg.spans)
	}
	// At full size the attribution must hold up: every sample charged to
	// exactly one layer, and the driver a small one. Scaled-down runs
	// have too few samples to judge.
	if d := values["driver.cpu_pct"]; d >= 5 || cpuSum < 99 || cpuSum > 101 {
		msg := fmt.Sprintf("driver.cpu_pct = %.2f (must be < 5: the driver is measuring itself), cpu shares sum to %.2f (must be 100 +- 1)", d, cpuSum)
		if cfg.scale == 1 {
			return nil, errors.New(msg)
		}
		rep.notes = append(rep.notes, "WARNING: "+msg)
	}
	return rep, nil
}

// sameSimulation checks that two same-seed passes saw the same
// simulated world: every counter, every op's virtual latency and kind,
// every tally.
func sameSimulation(a, b *pass) error {
	ea, eb := a.tal.exact(), b.tal.exact()
	if len(ea) != len(eb) {
		return fmt.Errorf("%d vs %d exact counts", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return fmt.Errorf("%q vs %q", ea[i], eb[i])
		}
	}
	ra, rb := a.rec, b.rec
	if ra.attempted != rb.attempted || ra.refused != rb.refused || ra.episodeChecks != rb.episodeChecks {
		return fmt.Errorf("attempted/refused/episode checks %d/%d/%d vs %d/%d/%d",
			ra.attempted, ra.refused, ra.episodeChecks, rb.attempted, rb.refused, rb.episodeChecks)
	}
	for i := range ra.virt {
		if ra.virt[i] != rb.virt[i] || ra.kinds[i] != rb.kinds[i] {
			return fmt.Errorf("op %d: %v %v vs %v %v", i, ra.kinds[i], ra.virt[i], rb.kinds[i], rb.virt[i])
		}
	}
	return nil
}

// ablations measures what two existing switches cost on the control
// mix, as ABAB segments so drift in the box's speed cancels: the
// journal (NoJournal false vs true, two installations) and the
// program's tracer (on vs off, one installation). They are the
// wall-clock siblings of ppmprof's virtual-time phases.
func ablations(cfg runConfig) (journalTax, traceTax float64, err error) {
	seg := ablationSegment / cfg.scale
	if seg < 100 {
		seg = 100
	}
	p := &pass{seed: cfg.seed, rec: newRecorder(false, 0, 0), tal: newTally()}
	// #nosec G404 -- deterministic schedule.
	rng := rand.New(rand.NewSource(cfg.seed))
	timeSeg := func(inst *installation, n int) (time.Duration, error) {
		t0 := time.Now()
		err := controlOps(p, inst, rng, n)
		return time.Since(t0), err
	}
	build := func(c ppm.ClusterConfig) (*installation, error) { return buildLine(p, 0, c) }

	withJ, err := build(ppm.ClusterConfig{})
	if err != nil {
		return 0, 0, err
	}
	withoutJ, err := build(ppm.ClusterConfig{NoJournal: true})
	if err != nil {
		return 0, 0, err
	}
	var on, off time.Duration
	for round := 0; round < 2; round++ {
		d, err := timeSeg(withJ, seg)
		if err != nil {
			return 0, 0, err
		}
		on += d
		if d, err = timeSeg(withoutJ, seg); err != nil {
			return 0, 0, err
		}
		off += d
	}
	journalTax = 100 * (on.Seconds()/off.Seconds() - 1)

	inst, err := build(ppm.ClusterConfig{})
	if err != nil {
		return 0, 0, err
	}
	tr := inst.c.Tracer()
	// The tracer is emptied every chunk, outside the clock, so the
	// span table of a whole segment never has to fit in memory.
	const chunk = 5000
	tr.SetMaxSpans(chunk * 40)
	on, off = 0, 0
	for round := 0; round < 2; round++ {
		for done := 0; done < seg; done += chunk {
			n := chunk
			if seg-done < n {
				n = seg - done
			}
			tr.Enable()
			d, err := timeSeg(inst, n)
			tr.Disable()
			if err != nil {
				return 0, 0, err
			}
			on += d
			if tr.Dropped() != 0 {
				return 0, 0, errors.New("trace ablation: the tracer dropped spans")
			}
			tr.Reset()
		}
		d, err := timeSeg(inst, seg)
		if err != nil {
			return 0, 0, err
		}
		off += d
	}
	traceTax = 100 * (on.Seconds()/off.Seconds() - 1)
	return journalTax, traceTax, nil
}
