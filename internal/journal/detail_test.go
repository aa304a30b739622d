package journal_test

import (
	"fmt"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// rendered appends d and reads its detail back the way every reader
// does.
func rendered(d journal.Detail) string {
	j := journal.New(func() time.Duration { return 0 })
	j.AppendDetail(journal.NetSend, "h", d, 0, 0)
	return j.Records()[0].Detail
}

// Every layout renders exactly what the fmt call it replaced produced.
func TestLayoutsRenderTheReplacedFormats(t *testing.T) {
	check := func(d journal.Detail, format string, args ...any) {
		t.Helper()
		if got, want := rendered(d), fmt.Sprintf(format, args...); got != want {
			t.Errorf("rendered %q, the format gave %q", got, want)
		}
	}
	check(journal.Text("groups=a,b|c"), "%s", "groups=a,b|c")
	check(journal.Text(""), "")

	transports := map[bool]string{false: "datagram", true: "circuit"}
	for _, circuit := range []bool{false, true} {
		for _, ports := range [][2]uint16{{1, 65535}, {7, 512}, {65535, 1}, {0, 10000}} {
			for _, size := range []int{0, 9, 14, 10000, 1 << 20} {
				d := journal.NetMessage(circuit, "vax1", ports[0], "sun-2", ports[1], size, "")
				check(d, "%s %s:%d->%s:%d %dB", transports[circuit], "vax1", ports[0], "sun-2", ports[1], size)
				d = journal.NetMessage(circuit, "vax1", ports[0], "sun-2", ports[1], size, "injected")
				check(d, "%s %s:%d->%s:%d %dB %s", transports[circuit], "vax1", ports[0], "sun-2", ports[1], size, "injected")
			}
		}
	}

	// Every manifest name, and the fallback on both sides of it.
	for mt := wire.MsgType(0); mt < 48; mt++ {
		for _, size := range []int{0, 37, 10000, 123456} {
			check(journal.WireFrame(mt.String(), size), "%s %dB", mt, size)
		}
		check(journal.Op("felipe", wire.OpKey("vax1", 30, 7), mt.String()),
			"user=%s op=%s type=%v", "felipe", wire.OpKey("vax1", 30, 7), mt)
	}

	for kind := proc.EventKind(0); kind <= proc.EvClose+1; kind++ {
		for _, id := range []proc.GPID{{Host: "vax1", PID: 6}, {Host: "h24", PID: 12345}} {
			check(journal.EventMessage(kind.String(), id.Host, int32(id.PID)), "%s proc=%s", kind, id)
		}
	}

	// The stamp of a flood hop, what lpm's stampID rendered through
	// Sprintf; the last seq is past the slot and takes the Text fallback.
	for _, at := range []time.Duration{0, 1500 * time.Microsecond, 2*time.Minute + 3*time.Second + 1, 3 * time.Hour} {
		for _, seq := range []uint64{1, 1<<31 - 1, 1 << 31} {
			check(journal.FloodStamp("felipe", "h23", at, seq), "user=%s stamp=%s@%v#%d", "felipe", "h23", at, seq)
		}
	}

	// Every edge and reason of a circuit step, what lpm's circuitTransition
	// formatted; past the last state is the "invalid" name, and a
	// suspicion step carries the detector's level.
	reasons := []string{"dial", "dial-failed", "hello", "hello-in", "auth-client", "auth-server",
		"suspicion", "traffic", "detector", "close", "peer-lost", "superseded", "exit"}
	const format = "user=%s peer=%s chan=%s from=%s to=%s reason=%s"
	for from := journal.CircuitIdle; from <= journal.CircuitClosed+1; from++ {
		for to := journal.CircuitIdle; to <= journal.CircuitClosed+1; to++ {
			for _, reason := range reasons {
				check(journal.CircuitStep("felipe", "vax2", "vax1:701->vax2:700", from, to, reason, 0),
					format, "felipe", "vax2", "vax1:701->vax2:700", from, to, reason)
			}
		}
	}
	check(journal.CircuitStep("felipe", "h23", "h01:10003->h23:2002", journal.CircuitEstablished, journal.CircuitSuspect, "suspicion", 3),
		format, "felipe", "h23", "h01:10003->h23:2002", "established", "suspect", "suspicion-3")
	check(journal.CircuitStep("felipe", "h23", "-", journal.CircuitIdle, journal.CircuitDialing, "dial", 0),
		format, "felipe", "h23", "-", "idle", "dialing", "dial")

	for op := wire.ControlOp(0); op <= wire.OpSignal+1; op++ {
		for _, pid := range []proc.PID{0, 6, 12345} {
			for _, ok := range []bool{true, false} {
				check(journal.Control(op.String(), int32(pid), ok), "op=%v pid=%d ok=%t", op, pid, ok)
			}
		}
	}
}

// A record renders what its site saw at the append, not what the
// site's variables hold when somebody reads: the entry keeps copies.
func TestDetailIsASnapshotOfItsValues(t *testing.T) {
	j := journal.New(func() time.Duration { return 0 })
	from, to := []byte("vax1"), []byte("vax2")
	j.AppendDetail(journal.NetDrop, "vax1",
		journal.NetMessage(true, string(from), 7, string(to), 8, 14, "injected"), 0, 0)
	j.AppendDetail(journal.LPMFloodApply, "vax2", journal.FloodStamp(string(from), string(to), time.Second, 9), 0, 0)
	before := j.Render()
	copy(from, "XXXX")
	copy(to, "YYYY")
	if after := j.Render(); after != before {
		t.Fatalf("the record changed under its reader:\n%s%s", before, after)
	}
}

// Select hands back — and therefore renders — only what the filter
// keeps.
func TestSelectRendersOnlyMatches(t *testing.T) {
	j := journal.New(func() time.Duration { return 0 })
	for i := 0; i < 100; i++ {
		j.AppendDetail(journal.NetSend, "a", journal.WireFrame("Control", i), 0, 0)
	}
	j.AppendDetail(journal.WireEncode, "b", journal.WireFrame("Control", 37), 0, 0)
	wire, err := journal.ParseKinds("wire")
	if err != nil {
		t.Fatal(err)
	}
	f := journal.Filter{Kinds: wire, Host: "b"}
	var got []journal.Record
	allocs := testing.AllocsPerRun(10, func() { got = j.Select(f) })
	if len(got) != 1 || got[0].Detail != "Control 37B" || got[0].Seq != 101 {
		t.Fatalf("selected %v", got)
	}
	// One rendered detail and the one-element result slice.
	if allocs > 2 {
		t.Fatalf("selecting 1 of 101 records allocated %v times: rejected records were rendered", allocs)
	}
}

// A circuit reason outside the vocabulary has no slot to ride in: like
// an unregistered kind, it panics at the site.
func TestCircuitStepUnknownReasonPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); msg != "journal: unregistered circuit reason bogus" {
			t.Fatalf("recovered %q, want the unregistered-reason panic", msg)
		}
	}()
	journal.CircuitStep("u", "b", "-", journal.CircuitIdle, journal.CircuitDialing, "bogus", 0)
}
