// Command ppmload is the repository's benchmark: five long-running
// workloads driven through the public API (ppm.NewCluster,
// Cluster.Attach, Session.*, Cluster.Crash/Partition/Advance/
// JournalAudit/Profile) in a closed loop with one client, over fixed
// operation counts generated from a seed. It reports two clocks — the
// simulator's wall clock and the simulated installation's virtual
// clock — and attributes the wall clock to the repo's layers from
// outside the program: its own spans, the public counters, and
// profiles of the unmodified code. See README.md beside this file.
//
// Usage:
//
//	ppmload -workload control|fanout|churn|chaos|observe [-seed N] [-seconds S] [-trace 0|1]
//	ppmload -all [-seed N] [-seconds S] [-trace 0|1]
//
// -seconds sizes the run: each workload's operation count is a frozen
// rate times -seconds, so the default 10 runs about ten seconds of
// wall time at HEAD on the 2-core reference box, and every count
// repeats exactly. -trace 1 is the separate traced run: a quarter of
// the schedule, with driver spans, a CPU profile and an allocation
// profile, printing the per-layer metrics; end-to-end numbers come
// only from -trace 0. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}. Exit status: 0 when
// every output check held, 1 when one failed, 2 for a bad command
// line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"ppm/internal/detord"
)

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ppmload (-workload NAME | -all) [-seed N] [-seconds S] [-trace 0|1] [-scale D] [-spans FILE]")
	fmt.Fprint(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprint(w, " ", wl.name)
	}
	fmt.Fprintln(w)
}

// options is the validated command line.
type options struct {
	workload string
	all      bool
	seed     int64
	seconds  int
	trace    int
	scale    int
	spans    string
}

// parseArgs parses and strictly validates the command line: positional
// arguments are rejected, exactly one of -workload and -all is
// required, and every number must be in range.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ppmload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "", "workload to run (control, fanout, churn, chaos, observe)")
	fs.BoolVar(&o.all, "all", false, "run every workload in turn")
	fs.Int64Var(&o.seed, "seed", 1, "seed the installation shapes and schedules are generated from (>= 0)")
	fs.IntVar(&o.seconds, "seconds", 10, "size of the run: operation counts are a frozen rate times this (1..60)")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = the timed run (end-to-end metrics)")
	fs.IntVar(&o.scale, "scale", 1, "divide every count by this (tests and smoke runs; results are not comparable)")
	fs.StringVar(&o.spans, "spans", "", "traced run: span file path (default .bench_build/ppmload.<workload>.spans.tsv)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case o.all && o.workload != "":
		return o, errors.New("-all and -workload are mutually exclusive")
	case !o.all && o.workload == "":
		return o, errors.New("one of -workload and -all is required")
	case !o.all && workloadByName(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seed < 0 {
		return o, fmt.Errorf("-seed must be >= 0, got %d", o.seed)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds must be between 1 and 60, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.scale < 1 {
		return o, fmt.Errorf("-scale must be >= 1, got %d", o.scale)
	}
	if o.spans != "" && (o.trace == 0 || o.all) {
		return o, errors.New("-spans needs -trace 1 and a single -workload")
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(stdout)
			return 0
		}
		fmt.Fprintln(stderr, "ppmload:", err)
		usage(stderr)
		return 2
	}
	selected := workloads
	if !o.all {
		selected = []*workload{workloadByName(o.workload)}
	}
	for _, w := range selected {
		cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, scale: o.scale, traced: o.trace == 1, spans: o.spans}
		if cfg.traced && cfg.spans == "" {
			cfg.spans = ".bench_build/ppmload." + w.name + ".spans.tsv"
		}
		printHeader(stdout, cfg)
		var rep *report
		if cfg.traced {
			rep, err = runTraced(cfg)
		} else {
			rep, err = runTimed(cfg)
		}
		if err != nil {
			// A failed output check prints no result line.
			fmt.Fprintf(stderr, "ppmload: %s: CHECK FAILED: %v\n", w.name, err)
			return 1
		}
		if err := printReport(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "ppmload:", err)
			return 1
		}
	}
	return 0
}

// printHeader records the box and the frozen sizes in every output.
func printHeader(w io.Writer, cfg runConfig) {
	groups := setupGroups
	if cfg.traced {
		groups = 1
	}
	fmt.Fprintf(w, "ppmload workload=%s seed=%d seconds=%d scale=%d trace=%d units=%d %s setup_builds=%dx%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.scale, btoi(cfg.traced), cfg.units(), cfg.w.unit,
		groups, cfg.setupBuilds(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, rep *report) error {
	printed := make(map[string]bool, len(rep.metrics))
	for _, m := range rep.metrics {
		printed[m.def.name] = true
		if m.value == notApplicable && m.def.name == "model.table2_err_pct" {
			fmt.Fprintf(w, "  %-34s %18s %s\n", m.def.name, "n/a", m.def.unit)
			continue
		}
		fmt.Fprintf(w, "  %-34s %18.6f %s\n", m.def.name, m.value, m.def.unit)
	}
	// Simulated state: deterministic for the seed, whichever run.
	header := false
	for _, name := range detord.Keys(rep.exact) {
		if printed[name] {
			continue
		}
		if !header {
			fmt.Fprintln(w, "simulated state (exact for this seed and size):")
			header = true
		}
		fmt.Fprintf(w, "  %-34s %18.6f\n", name, rep.exact[name])
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, d := range rep.dirty {
		fmt.Fprintf(w, "dirty: chaos cluster seed %d: check %q, %d audit violations, first: %s\n",
			d.seed, d.check, d.violations, d.first)
	}
	// Failed is ops.failed. On the four fault-free workloads it is 0: a
	// failed op there is a failed check and no result is printed at all.
	// On chaos it counts the calls refused under injected faults and the
	// episodes whose post-heal check or audit failed, both deterministic
	// for the seed; the run is correct in that it counted them.
	res := result{
		Correct: true, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]resultValue, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		res.Metrics[m.def.name] = resultValue{Value: m.value, Unit: m.def.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
