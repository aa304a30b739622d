package lpm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"ppm/internal/proc"
	"ppm/internal/simnet"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The fault path of circuit establishment: a dial is one record, and
// its error is data rendered only when read.

// TestFaultReadsAsItsOldWrap: each fault reads byte for byte as the
// fmt.Errorf it replaced, and errors.Is answers as that wrap did — a
// fault exposes its sentinel and never its cause.
func TestFaultReadsAsItsOldWrap(t *testing.T) {
	unreachable := fmt.Errorf("%w: %s -> %s", simnet.ErrUnreachable, "vax1", "vax2")
	for _, tc := range []struct {
		got, old error
	}{
		{&fault{ErrNoSibling, "%s", "vax2", nil}, fmt.Errorf("%w: %s", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "query %s: %v", "vax2", unreachable}, fmt.Errorf("%w: query %s: %v", ErrNoSibling, "vax2", unreachable)},
		{&fault{ErrNoSibling, "query %s: %v", "vax2", ErrExited}, fmt.Errorf("%w: query %s: %v", ErrNoSibling, "vax2", ErrExited)},
		{&fault{ErrNoSibling, "pmd on %s: %s", "vax2", "pmd: create LPM: no"}, fmt.Errorf("%w: pmd on %s: %s", ErrNoSibling, "vax2", "pmd: create LPM: no")},
		{&fault{ErrNoSibling, "dial %s: %v", "vax2", unreachable}, fmt.Errorf("%w: dial %s: %v", ErrNoSibling, "vax2", unreachable)},
		{&fault{ErrNoSibling, "bad hello reply from %s", "vax2", nil}, fmt.Errorf("%w: bad hello reply from %s", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "cross-dial yield to %s never completed", "vax2", nil}, fmt.Errorf("%w: cross-dial yield to %s never completed", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "%s rejected hello: %s", "vax2", "user mismatch"}, fmt.Errorf("%w: %s rejected hello: %s", ErrNoSibling, "vax2", "user mismatch")},
		{&fault{ErrNoSibling, "circuit to %s closed during hello", "vax2", nil}, fmt.Errorf("%w: circuit to %s closed during hello", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "circuit to %s broke during hello", "vax2", nil}, fmt.Errorf("%w: circuit to %s broke during hello", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "hello to %s timed out", "vax2", nil}, fmt.Errorf("%w: hello to %s timed out", ErrNoSibling, "vax2")},
		{&fault{ErrNoSibling, "%s circuit closed", "vax2", nil}, fmt.Errorf("%w: %s circuit closed", ErrNoSibling, "vax2")},
		{&fault{ErrTimeout, "%[2]v to %[1]s", "vax2", wire.MsgPing}, fmt.Errorf("%w: %v to %s", ErrTimeout, wire.MsgPing, "vax2")},
	} {
		if got, want := tc.got.Error(), tc.old.Error(); got != want {
			t.Errorf("fault reads %q, its old wrap %q", got, want)
		}
		for _, target := range []error{ErrNoSibling, simnet.ErrUnreachable, ErrTimeout, ErrExited} {
			if got, want := errors.Is(tc.got, target), errors.Is(tc.old, target); got != want {
				t.Errorf("errors.Is(%q, %v) = %v, its old wrap %v", tc.old, target, got, want)
			}
		}
	}
}

// TestUnreachableDialAllocs pins a dial to a partitioned peer — it
// settles through the pmd query's unreachable leg — with journal and
// metrics wired, tracer off: the dial's record, simnet's timer closure
// and unreachable error, and the dial's fault. The text it reads is the
// two wraps it replaced.
func TestUnreachableDialAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation changes what escapes")
			}
		}
	}
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	installJournal(w)
	installMetrics(w)
	l := w.attach("vax1", w.user("felipe", "vax1", "vax2"))
	w.create(l, "vax1", "warm", proc.GPID{}) // a live process: the LPM outlives its TTL
	if err := w.net.Partition([]string{"vax1"}, []string{"vax2"}); err != nil {
		t.Fatal(err)
	}
	var got error
	settled := 0
	cb := func(_ *sibling, err error) { got, settled = err, settled+1 }
	attempt := func() {
		want := settled + 1
		l.ensureSibling(trace.Context{}, "vax2", cb)
		for settled < want && w.sched.Step() {
		}
	}
	for i := 0; i < 1000; i++ {
		attempt() // warm: the scheduler's events, the journal ring wrapped
	}
	if want := "lpm: sibling unavailable: query vax2: simnet: unreachable: vax1 -> vax2"; got == nil || got.Error() != want {
		t.Fatalf("dial failed with %v, want %q", got, want)
	}
	if !errors.Is(got, ErrNoSibling) || errors.Is(got, simnet.ErrUnreachable) {
		t.Fatalf("%v: errors.Is gives ErrNoSibling %v, ErrUnreachable %v; want true, false",
			got, errors.Is(got, ErrNoSibling), errors.Is(got, simnet.ErrUnreachable))
	}
	const budget = 4
	if n := testing.AllocsPerRun(200, attempt); n > budget {
		t.Errorf("unreachable dial: %.1f allocs, budget %d", n, budget)
	}
}
