package config

import (
	"errors"
	"strings"
	"testing"

	"ppm/internal/history"
	"ppm/internal/kernel"
	"ppm/internal/proc"
)

const sample = `
# a distributed build
computation build
recovery vax1 vax2

proc coord  on vax1 trace all
proc split  on vax1 parent coord
proc cc1    on vax2 parent split
proc cc2    on sun1 parent split fg
proc linker on vax1 parent coord trace lifecycle,signals

watch exit of cc1 do signal coord SIGUSR1
watch signal:SIGUSR2 of * do note unexpected interrupt
watch stop of linker do kill cc2
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "build" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.Recovery) != 2 || p.Recovery[0] != "vax1" {
		t.Fatalf("recovery = %v", p.Recovery)
	}
	if len(p.Procs) != 5 {
		t.Fatalf("procs = %d", len(p.Procs))
	}
	coord := p.Procs[0]
	if coord.Name != "coord" || coord.Host != "vax1" || coord.Trace != kernel.TraceAll {
		t.Fatalf("coord = %+v", coord)
	}
	cc2 := p.Procs[3]
	if !cc2.Foreground || cc2.Parent != "split" || cc2.Host != "sun1" {
		t.Fatalf("cc2 = %+v", cc2)
	}
	linker := p.Procs[4]
	if linker.Trace != kernel.TraceLifecycle|kernel.TraceSignals {
		t.Fatalf("linker trace = %v", linker.Trace)
	}
	if len(p.Watches) != 3 {
		t.Fatalf("watches = %d", len(p.Watches))
	}
	w0 := p.Watches[0]
	if w0.Event != proc.EvExit || w0.Target != "cc1" ||
		w0.Action.Kind != ActSignal || w0.Action.Signal != proc.SIGUSR1 {
		t.Fatalf("watch0 = %+v", w0)
	}
	w1 := p.Watches[1]
	if w1.Event != proc.EvSignal || w1.Signal != proc.SIGUSR2 || w1.Target != "*" ||
		w1.Action.Kind != ActNote || w1.Action.Text != "unexpected interrupt" {
		t.Fatalf("watch1 = %+v", w1)
	}
	hosts := p.Hosts()
	want := []string{"sun1", "vax1", "vax2"}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v", hosts)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want error
	}{
		{"empty", "", ErrSyntax},
		{"unknown directive", "frobnicate x", ErrSyntax},
		{"proc missing on", "proc a vax1", ErrSyntax},
		{"duplicate proc", "proc a on h\nproc a on h", ErrDuplicate},
		{"undeclared parent", "proc a on h parent ghost", ErrUnknown},
		{"forward parent", "proc a on h parent b\nproc b on h", ErrUnknown},
		{"bad trace level", "proc a on h trace everything", ErrSyntax},
		{"watch undeclared target", "proc a on h\nwatch exit of ghost do kill a", ErrUnknown},
		{"watch undeclared action target", "proc a on h\nwatch exit of a do kill ghost", ErrUnknown},
		{"watch bad event", "proc a on h\nwatch melt of a do kill a", ErrSyntax},
		{"watch bad signal event", "proc a on h\nwatch signal:SIGWHAT of a do kill a", ErrSyntax},
		{"watch bad action", "proc a on h\nwatch exit of a do dance", ErrSyntax},
		{"watch bad action signal", "proc a on h\nwatch exit of a do signal a SIGWHAT", ErrSyntax},
		{"computation no name", "computation", ErrSyntax},
		{"recovery empty", "recovery", ErrSyntax},
		{"proc bad option", "proc a on h wibble", ErrSyntax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.text)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	p, err := Parse("# header\n\nproc a on h # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Procs) != 1 || p.Procs[0].Name != "a" {
		t.Fatalf("procs = %+v", p.Procs)
	}
}

// fakeRunner records the calls a plan makes.
type fakeRunner struct {
	home    string
	nextPID proc.PID
	created []ProcDecl
	parents map[string]proc.GPID
	traced  map[proc.PID]kernel.TraceMask
	watches []*history.Watch
	signals []string
	killed  []proc.GPID
	stopped []proc.GPID
	failOn  string
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{
		home:    "vax1",
		parents: make(map[string]proc.GPID),
		traced:  make(map[proc.PID]kernel.TraceMask),
	}
}

func (f *fakeRunner) Home() string { return f.home }

func (f *fakeRunner) RunChild(host, name string, parent proc.GPID) (proc.GPID, error) {
	if name == f.failOn {
		return proc.GPID{}, errors.New("boom")
	}
	f.nextPID++
	f.created = append(f.created, ProcDecl{Name: name, Host: host})
	f.parents[name] = parent
	return proc.GPID{Host: host, PID: f.nextPID}, nil
}

func (f *fakeRunner) SetTraceMask(pid proc.PID, mask kernel.TraceMask) error {
	f.traced[pid] = mask
	return nil
}

func (f *fakeRunner) Signal(target proc.GPID, sig proc.Signal) error {
	f.signals = append(f.signals, target.String()+":"+sig.String())
	return nil
}

func (f *fakeRunner) Stop(target proc.GPID) error {
	f.stopped = append(f.stopped, target)
	return nil
}

func (f *fakeRunner) Kill(target proc.GPID) error {
	f.killed = append(f.killed, target)
	return nil
}

func (f *fakeRunner) OnEvent(w *history.Watch) func() {
	f.watches = append(f.watches, w)
	idx := len(f.watches) - 1
	return func() { f.watches[idx] = nil }
}

func (f *fakeRunner) fire(ev proc.Event) {
	for _, w := range f.watches {
		if w == nil {
			continue
		}
		if w.Kind != 0 && ev.Kind != w.Kind {
			continue
		}
		if !w.Proc.IsZero() && ev.Proc != w.Proc && ev.Child != w.Proc {
			continue
		}
		if w.Signal != 0 && ev.Signal != w.Signal {
			continue
		}
		w.Action(ev)
	}
}

func TestInstantiate(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	r := newFakeRunner()
	inst, err := p.Instantiate(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.created) != 5 {
		t.Fatalf("created = %d", len(r.created))
	}
	// Declaration order and genealogy.
	coord, _ := inst.Lookup("coord")
	split, _ := inst.Lookup("split")
	if r.parents["split"] != coord || r.parents["cc1"] != split {
		t.Fatalf("parents = %+v", r.parents)
	}
	// Local trace masks applied, remote ones noted.
	if r.traced[coord.PID] != kernel.TraceAll {
		t.Fatalf("coord trace = %v", r.traced[coord.PID])
	}
	names := inst.Names()
	if len(names) != 5 || names[0] != "coord" {
		t.Fatalf("names = %v", names)
	}
	if _, ok := inst.Lookup("ghost"); ok {
		t.Fatal("phantom lookup")
	}
	if len(r.watches) != 3 {
		t.Fatalf("watches = %d", len(r.watches))
	}
}

func TestInstantiateWatchActions(t *testing.T) {
	p, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	r := newFakeRunner()
	inst, err := p.Instantiate(r)
	if err != nil {
		t.Fatal(err)
	}
	cc1, _ := inst.Lookup("cc1")
	coord, _ := inst.Lookup("coord")
	cc2, _ := inst.Lookup("cc2")
	linker, _ := inst.Lookup("linker")

	// cc1 exits -> coord gets SIGUSR1.
	r.fire(proc.Event{Kind: proc.EvExit, Proc: cc1})
	if len(r.signals) != 1 || r.signals[0] != coord.String()+":SIGUSR1" {
		t.Fatalf("signals = %v", r.signals)
	}
	// Any SIGUSR2 -> note.
	r.fire(proc.Event{Kind: proc.EvSignal, Proc: coord, Signal: proc.SIGUSR2})
	found := false
	for _, n := range inst.Notes() {
		if strings.Contains(n, "unexpected interrupt") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes = %v", inst.Notes())
	}
	// linker stops -> cc2 killed.
	r.fire(proc.Event{Kind: proc.EvStop, Proc: linker})
	if len(r.killed) != 1 || r.killed[0] != cc2 {
		t.Fatalf("killed = %v", r.killed)
	}
	// Close removes the watches.
	inst.Close()
	r.fire(proc.Event{Kind: proc.EvExit, Proc: cc1})
	if len(r.signals) != 1 {
		t.Fatal("watch fired after Close")
	}
}

func TestInstantiateRemoteTraceNoted(t *testing.T) {
	p, err := Parse("proc w on vax9 trace all\n")
	if err != nil {
		t.Fatal(err)
	}
	r := newFakeRunner() // home vax1
	inst, err := p.Instantiate(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.traced) != 0 {
		t.Fatal("remote trace mask should not have been applied locally")
	}
	if len(inst.Notes()) != 1 || !strings.Contains(inst.Notes()[0], "vax9") {
		t.Fatalf("notes = %v", inst.Notes())
	}
}

func TestInstantiateCreateFailure(t *testing.T) {
	p, err := Parse("proc a on h\nproc b on h\n")
	if err != nil {
		t.Fatal(err)
	}
	r := newFakeRunner()
	r.failOn = "b"
	if _, err := p.Instantiate(r); err == nil {
		t.Fatal("expected create failure to propagate")
	}
}

// FuzzParse throws arbitrary text at the description parser, seeded
// with the sample and every rejected text of TestParseErrors. Parsing
// never panics; a rejection wraps one of the package's three errors; a
// plan that parses declares a process, and every name it refers to —
// parents, watch targets, action targets — is one it declared earlier.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("# header\n\nproc a on h # trailing\n")
	for _, text := range []string{"", "frobnicate x", "proc a vax1", "proc a on h\nproc a on h",
		"proc a on h parent ghost", "proc a on h parent b\nproc b on h", "proc a on h trace everything",
		"proc a on h\nwatch exit of ghost do kill a", "proc a on h\nwatch exit of a do kill ghost",
		"proc a on h\nwatch melt of a do kill a", "proc a on h\nwatch signal:SIGWHAT of a do kill a",
		"proc a on h\nwatch exit of a do dance", "proc a on h\nwatch exit of a do signal a SIGWHAT",
		"computation", "recovery", "proc a on h wibble", "proc a on h trace", "watch", "proc"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			if p != nil || !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrUnknown) && !errors.Is(err, ErrDuplicate) {
				t.Fatalf("Parse(%q) = %v, %v: want no plan and one of the package's errors", text, p, err)
			}
			return
		}
		if len(p.Procs) == 0 {
			t.Fatalf("Parse(%q) accepted a plan without processes", text)
		}
		declared := map[string]bool{}
		for _, d := range p.Procs {
			if d.Name == "" || d.Host == "" || declared[d.Name] || d.Parent != "" && !declared[d.Parent] {
				t.Fatalf("Parse(%q) accepted proc %+v after %v", text, d, declared)
			}
			declared[d.Name] = true
		}
		for _, w := range p.Watches {
			if w.Target != "*" && !declared[w.Target] || w.Action.Target != "" && !declared[w.Action.Target] {
				t.Fatalf("Parse(%q) accepted watch %+v over %v", text, w, declared)
			}
		}
	})
}
