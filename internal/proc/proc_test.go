package proc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mkSnap() Snapshot {
	// A three-host genealogy in the spirit of Figure 1:
	//   <hostA,10> shell
	//     ├── <hostA,11> compute (exited)
	//     │   └── <hostB,20> worker
	//     └── <hostB,21> monitor (stopped)
	//           └── <hostC,30> leaf
	infos := []Info{
		{ID: GPID{"hostA", 10}, Name: "shell", State: Running},
		{ID: GPID{"hostA", 11}, Parent: GPID{"hostA", 10}, Name: "compute", State: Exited},
		{ID: GPID{"hostB", 20}, Parent: GPID{"hostA", 11}, Name: "worker", State: Running},
		{ID: GPID{"hostB", 21}, Parent: GPID{"hostA", 10}, Name: "monitor", State: Stopped},
		{ID: GPID{"hostC", 30}, Parent: GPID{"hostB", 21}, Name: "leaf", State: Running},
	}
	return Merge(time.Second, infos)
}

func TestGPIDString(t *testing.T) {
	g := GPID{Host: "vax1", PID: 42}
	if g.String() != "<vax1,42>" {
		t.Fatalf("String = %q", g.String())
	}
	if !(GPID{}).IsZero() {
		t.Fatal("zero GPID should report IsZero")
	}
	if g.IsZero() {
		t.Fatal("non-zero GPID reported IsZero")
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Running: "running", Stopped: "stopped", Exited: "exited",
		Dead: "dead", State(0): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestSignalStrings(t *testing.T) {
	if SIGKILL.String() != "SIGKILL" || SIGSTOP.String() != "SIGSTOP" {
		t.Fatal("well-known signal names wrong")
	}
	if Signal(77).String() != "SIG77" {
		t.Fatalf("unknown signal = %q", Signal(77).String())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvFork, EvExec, EvExit, EvStop, EvCont, EvSignal, EvSyscall, EvIPC, EvOpen, EvClose}
	want := []string{"fork", "exec", "exit", "stop", "cont", "signal", "syscall", "ipc", "open", "close"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("%d: got %q want %q", k, k.String(), want[i])
		}
	}
	if EventKind(99).String() != "event#99" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestRusageAdd(t *testing.T) {
	a := Rusage{CPUTime: time.Second, Syscalls: 5, MsgsSent: 2, MsgsRecv: 1, MaxRSSKB: 100}
	b := Rusage{CPUTime: time.Second, Syscalls: 3, MsgsSent: 1, MsgsRecv: 4, MaxRSSKB: 50}
	a.Add(b)
	if a.CPUTime != 2*time.Second || a.Syscalls != 8 || a.MsgsSent != 3 || a.MsgsRecv != 5 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.MaxRSSKB != 100 {
		t.Fatalf("MaxRSS should be max, got %d", a.MaxRSSKB)
	}
	b.Add(Rusage{MaxRSSKB: 200})
	if b.MaxRSSKB != 200 {
		t.Fatal("MaxRSS should take the larger value")
	}
}

func TestSnapshotRootsSingleTree(t *testing.T) {
	s := mkSnap()
	roots := s.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if roots[0].ID != (GPID{"hostA", 10}) {
		t.Fatalf("root = %v", roots[0].ID)
	}
	if s.IsForest() {
		t.Fatal("single tree reported as forest")
	}
}

func TestSnapshotBecomesForestWhenHostLost(t *testing.T) {
	// Drop hostA's processes (host crash): B and C records remain, and
	// the known-parent links break — the tree becomes a forest.
	full := mkSnap()
	var surviving []Info
	for _, p := range full.Procs {
		if p.ID.Host != "hostA" {
			surviving = append(surviving, p)
		}
	}
	s := Merge(2*time.Second, surviving)
	s.Partial = []string{"hostA"}
	roots := s.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (forest)", len(roots))
	}
	if !s.IsForest() {
		t.Fatal("should be a forest")
	}
	if !strings.Contains(s.Render(), "partial: no information from hostA") {
		t.Fatal("render should note the partial snapshot")
	}
}

func TestSnapshotChildrenSorted(t *testing.T) {
	s := mkSnap()
	kids := s.Children(GPID{"hostA", 10})
	if len(kids) != 2 {
		t.Fatalf("children = %d, want 2", len(kids))
	}
	if kids[0].ID != (GPID{"hostA", 11}) || kids[1].ID != (GPID{"hostB", 21}) {
		t.Fatalf("children order wrong: %v %v", kids[0].ID, kids[1].ID)
	}
}

func TestSnapshotFind(t *testing.T) {
	s := mkSnap()
	p, ok := s.Find(GPID{"hostB", 20})
	if !ok || p.Name != "worker" {
		t.Fatalf("Find = %+v ok=%v", p, ok)
	}
	if _, ok := s.Find(GPID{"nowhere", 1}); ok {
		t.Fatal("found nonexistent process")
	}
}

func TestSnapshotHosts(t *testing.T) {
	s := mkSnap()
	hosts := s.Hosts()
	want := []string{"hostA", "hostB", "hostC"}
	if len(hosts) != len(want) {
		t.Fatalf("hosts = %v", hosts)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v, want %v", hosts, want)
		}
	}
}

func TestRenderShowsStatesAndSpansHosts(t *testing.T) {
	out := mkSnap().Render()
	for _, want := range []string{
		"<hostA,10> shell",
		"<hostA,11> compute (exited)",
		"<hostB,20> worker",
		"<hostB,21> monitor (stopped)",
		"<hostC,30> leaf",
		"└── ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderNesting(t *testing.T) {
	out := mkSnap().Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// The grandchild under the exited process must be indented deeper
	// than its parent.
	var parentIdx, childIdx int
	for i, l := range lines {
		if strings.Contains(l, "compute") {
			parentIdx = i
		}
		if strings.Contains(l, "worker") {
			childIdx = i
		}
	}
	if childIdx != parentIdx+1 {
		t.Fatalf("worker should immediately follow compute:\n%s", out)
	}
	if len(lines[childIdx])-len(strings.TrimLeft(lines[childIdx], "│ └├─")) <=
		len(lines[parentIdx])-len(strings.TrimLeft(lines[parentIdx], "│ └├─")) {
		t.Fatalf("worker not nested deeper than compute:\n%s", out)
	}
}

func TestMergeSortsDeterministically(t *testing.T) {
	a := []Info{{ID: GPID{"b", 2}}, {ID: GPID{"a", 9}}}
	b := []Info{{ID: GPID{"a", 1}}, {ID: GPID{"b", 1}}}
	s := Merge(0, a, b)
	wantOrder := []GPID{{"a", 1}, {"a", 9}, {"b", 1}, {"b", 2}}
	for i, w := range wantOrder {
		if s.Procs[i].ID != w {
			t.Fatalf("order[%d] = %v, want %v", i, s.Procs[i].ID, w)
		}
	}
	if a[0].ID != (GPID{"b", 2}) || b[0].ID != (GPID{"a", 1}) {
		t.Fatalf("Merge reordered its fragments: %v, %v", a, b)
	}
	// Adopt sorts the one fragment it is given in place and keeps it.
	own := append(append([]Info(nil), a...), b...)
	if got := Adopt(0, own); &got.Procs[0] != &own[0] || !reflect.DeepEqual(got.Procs, s.Procs) {
		t.Fatalf("Adopt = %v, want Merge's %v in the given slice", got.Procs, s.Procs)
	}
}

// Property: every process in a snapshot is reachable from some root by
// following Children edges — the forest covers the whole snapshot.
func TestPropertyForestCoversSnapshot(t *testing.T) {
	f := func(edges []uint8) bool {
		// Build a random parent structure over n processes.
		n := len(edges)
		if n == 0 {
			return true
		}
		if n > 24 {
			n = 24
		}
		infos := make([]Info, n)
		for i := 0; i < n; i++ {
			infos[i] = Info{ID: GPID{"h", PID(i + 1)}, Name: "p", State: Running}
			if i > 0 {
				parent := int(edges[i]) % i // earlier process
				infos[i].Parent = GPID{"h", PID(parent + 1)}
			}
		}
		s := Merge(0, infos)
		seen := map[GPID]bool{}
		var walk func(p Info)
		walk = func(p Info) {
			if seen[p.ID] {
				return
			}
			seen[p.ID] = true
			for _, k := range s.Children(p.ID) {
				walk(k)
			}
		}
		for _, r := range s.Roots() {
			walk(r)
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtree(t *testing.T) {
	s := mkSnap()
	// Subtree of the exited compute process: itself + worker on hostB.
	sub := s.Subtree(GPID{"hostA", 11})
	if len(sub.Procs) != 2 {
		t.Fatalf("subtree procs = %+v", sub.Procs)
	}
	if _, ok := sub.Find(GPID{"hostB", 20}); !ok {
		t.Fatal("descendant missing from subtree")
	}
	if _, ok := sub.Find(GPID{"hostA", 10}); ok {
		t.Fatal("ancestor leaked into subtree")
	}
	// Whole-tree subtree equals the snapshot.
	all := s.Subtree(GPID{"hostA", 10})
	if len(all.Procs) != len(s.Procs) {
		t.Fatalf("root subtree = %d procs, want %d", len(all.Procs), len(s.Procs))
	}
	// Unknown root yields an empty subtree.
	if got := s.Subtree(GPID{"nowhere", 1}); len(got.Procs) != 0 {
		t.Fatalf("phantom subtree: %+v", got.Procs)
	}
}
