package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ppm"
	"ppm/internal/detord"
)

// testScale shrinks every count so a whole workload runs in a fraction
// of a second: 5500 control ops, 8 or 4 episodes, 733 observed ops. The
// mechanisms are the same; only the numbers are not comparable with a
// real run. fanout keeps 233 broadcasts, so that several of its rounds
// start at a seeded session.
const testScale = 300

func testConfig(name string, seed int64) runConfig {
	cfg := runConfig{w: workloadByName(name), seed: seed, seconds: 10, scale: testScale, digest: true}
	if name == "fanout" {
		cfg.scale = 60
	}
	return cfg
}

func mustTimed(t *testing.T, cfg runConfig) *report {
	t.Helper()
	rep, err := runTimed(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.w.name, cfg.seed, err)
	}
	return rep
}

func value(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.def.name == name {
			return m.value
		}
	}
	v, ok := rep.exact[name]
	if !ok {
		t.Fatalf("%s: metric %s was not reported", rep.cfg.w.name, name)
	}
	return v
}

// Simulated statistics are deterministic for a fixed seed: two runs
// must agree on every one of them bit for bit, and on the journal.
func TestSameSeedSameSimulation(t *testing.T) {
	for _, w := range workloads {
		a := mustTimed(t, testConfig(w.name, 7))
		b := mustTimed(t, testConfig(w.name, 7))
		if !reflect.DeepEqual(a.exact, b.exact) {
			t.Errorf("%s: exact metrics differ between two runs of seed 7:\n%v\n%v", w.name, a.exact, b.exact)
		}
		if a.digest == 0 || a.digest != b.digest {
			t.Errorf("%s: journal digest %016x vs %016x", w.name, a.digest, b.digest)
		}
		if a.attempted != b.attempted || a.failed != b.failed {
			t.Errorf("%s: attempted/failed %d/%d vs %d/%d", w.name, a.attempted, a.failed, b.attempted, b.failed)
		}
		// The result line's failure count is the per-layer ops.failed: 0
		// on the fault-free workloads, the refusals and failed episode
		// checks on chaos.
		if float64(a.failed) != a.exact["ops.failed"] || (a.failed > 0) != (w.name == "chaos") {
			t.Errorf("%s: failed = %d, ops.failed = %v", w.name, a.failed, a.exact["ops.failed"])
		}
		for _, name := range []string{"virt_ms_mean", "msgs_per_op"} {
			if value(t, a, name) != value(t, b, name) {
				t.Errorf("%s: %s differs between two runs of seed 7", w.name, name)
			}
		}
	}
}

// Another seed gives another schedule — a different journal — under
// the same metric names.
func TestDifferentSeedDifferentSchedule(t *testing.T) {
	for _, w := range workloads {
		a := mustTimed(t, testConfig(w.name, 7))
		b := mustTimed(t, testConfig(w.name, 8))
		if a.digest == b.digest {
			t.Errorf("%s: seeds 7 and 8 produced the same journal", w.name)
		}
		if !reflect.DeepEqual(detord.Keys(a.exact), detord.Keys(b.exact)) {
			t.Errorf("%s: seeds 7 and 8 print different metric names", w.name)
		}
	}
}

// The benchmark must be able to see a difference that is known to be
// there, using only switches the program already has; and each
// difference must be invisible where its mechanism is bypassed.
func TestSensitivity(t *testing.T) {
	control := mustTimed(t, testConfig("control", 7))

	noJournal := *workloadByName("control")
	noJournal.build = func(p *pass, i int) (*installation, error) {
		return buildLine(p, i, ppm.ClusterConfig{NoJournal: true})
	}
	cfg := testConfig("control", 7)
	cfg.w = &noJournal
	bare := mustTimed(t, cfg)
	for _, name := range []string{"allocs_per_op", "bytes_per_op"} {
		if with, without := value(t, control, name), value(t, bare, name); without >= with {
			t.Errorf("control %s: %.2f with the journal, %.2f without; the journal's cost is invisible", name, with, without)
		}
	}
	// The journal records the simulation; it must not steer it.
	for name, v := range control.exact {
		if !strings.HasPrefix(name, "journal.") && bare.exact[name] != v {
			t.Errorf("NoJournal moved %s on control: %v -> %v", name, v, bare.exact[name])
		}
	}
	if value(t, control, "msgs_per_op") != value(t, bare, "msgs_per_op") ||
		value(t, control, "virt_ms_mean") != value(t, bare, "virt_ms_mean") {
		t.Error("NoJournal moved msgs_per_op or virt_ms_mean on control")
	}

	observe := mustTimed(t, testConfig("observe", 7))
	if o, c := value(t, observe, "allocs_per_op"), value(t, control, "allocs_per_op"); o <= c {
		t.Errorf("observe allocs_per_op %.2f <= control's %.2f: the instrumentation tax is invisible", o, c)
	}
	if value(t, observe, "trace.spans_per_op") <= 0 || value(t, control, "trace.spans_per_op") != 0 {
		t.Error("trace.spans_per_op must be > 0 on observe and 0 on control")
	}

	chaos := mustTimed(t, testConfig("chaos", 7))
	if value(t, chaos, "lpm.retries_per_op") <= 0 {
		t.Error("chaos shows no lpm.retries_per_op: the fault path is not exercised")
	}
	fanout := mustTimed(t, testConfig("fanout", 7))
	if value(t, fanout, "lpm.flood_dedup_hits") <= 0 {
		t.Error("fanout shows no lpm.flood_dedup_hits: the circuit graph has no cycle")
	}
	for _, name := range []string{"lpm.retries_per_op", "lpm.timeouts_per_op", "lpm.redials_per_op",
		"lpm.flood_dedup_hits", "lpm.flood_forwards_per_op", "recovery.siblings_lost", "detect.suspects"} {
		if v := value(t, control, name); v != 0 {
			t.Errorf("control bypasses floods and faults, yet %s = %v", name, v)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAreWellFormed(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.name != "setup_s" && d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
	for _, d := range perLayer {
		check(d)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or reused workload name %q", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Every name in BENCHMARK.json is printed by the driver, with the same
// unit, direction and bound, and the driver prints nothing else.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "cmd/ppmload/run.sh"}) ||
		!reflect.DeepEqual(bf.Paths, []string{"cmd/ppmload"}) {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != 10 {
		t.Errorf("run_seconds = %d; the frozen rates are sized for 10", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the driver %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the driver %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the driver %+v", i, got, d)
		}
	}
}

// lastLine parses the contract's result line.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func checkResult(t *testing.T, res result, defs []metricDef, faults bool) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || (res.Failed > 0) != faults || res.Failed >= res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s is not in the result line", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// The command-line surface, end to end: the timed run prints exactly
// the end-to-end metrics, the traced run exactly the per-layer ones
// (after checking that its untraced and traced passes simulated the
// same world), and the span file is written.
func TestRunPrintsTheContract(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"--workload", "control", "--seed", "3", "--seconds", "10", "--trace", "0", "-scale", "300"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	checkResult(t, lastLine(t, out.String()), endToEnd, false)
	for _, want := range []string{"nproc=", "GOMAXPROCS=", "go1.", "units=5500 ops", "setup_builds=5x1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the output does not record %q", want)
		}
	}

	for _, name := range []string{"control", "chaos"} {
		out.Reset()
		errw.Reset()
		spans := filepath.Join(t.TempDir(), "spans.tsv")
		if code := run([]string{"-workload", name, "-trace", "1", "-scale", "300", "-spans", spans}, &out, &errw); code != 0 {
			t.Fatalf("%s traced: exit %d: %s", name, code, errw.String())
		}
		res := lastLine(t, out.String())
		checkResult(t, res, perLayer, name == "chaos")
		if got := res.Metrics["ops.failed"].Value; got != float64(res.Failed) {
			t.Errorf("%s: the result line says %d failed, ops.failed says %v", name, res.Failed, got)
		}
		if res.Metrics["driver.cpu_pct"].Value >= 50 {
			t.Errorf("%s: driver.cpu_pct = %v", name, res.Metrics["driver.cpu_pct"].Value)
		}
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte("\n")); n < res.Attempted {
			t.Errorf("%s: span file has %d lines for %d ops", name, n, res.Attempted)
		}
	}
}

func TestParseArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "control"},
		{"--workload", "chaos", "--seed", "0", "--seconds", "60", "--trace", "1"},
		{"-all", "-seconds", "1"},
		{"-workload", "observe", "-trace", "1", "-spans", "x.tsv"},
	} {
		if _, err := parseArgs(args); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "control", "-all"},
		{"-workload", "control", "extra"},
		{"-workload", "control", "-seed", "-1"},
		{"-workload", "control", "-seconds", "0"},
		{"-workload", "control", "-seconds", "61"},
		{"-workload", "control", "-trace", "2"},
		{"-workload", "control", "-scale", "0"},
		{"-workload", "control", "-spans", "x.tsv"},
		{"-all", "-trace", "1", "-spans", "x.tsv"},
		{"-workload", "control", "-bogus"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errw); code != 2 || out.Len() != 0 {
		t.Errorf("bad command line: exit %d, stdout %q", code, out.String())
	}
}
