package journal_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// rendered appends d under kind and reads its detail back the way
// every reader does.
func rendered(kind journal.Kind, d journal.Detail) string {
	j := journal.New(func() time.Duration { return 0 })
	j.AppendDetail(kind, "h", d, 0, 0)
	return j.Records()[0].Detail
}

// Every constructor renders exactly what the fmt call it replaced
// produced at its sites.
func TestLayoutsRenderTheReplacedFormats(t *testing.T) {
	kind := journal.NetSend
	check := func(d journal.Detail, format string, args ...any) {
		t.Helper()
		if got, want := rendered(kind, d), fmt.Sprintf(format, args...); got != want {
			t.Errorf("%v rendered %q, the format gave %q", kind, got, want)
		}
	}
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
		for _, kind = range []journal.Kind{journal.WireEncode, journal.WireDecode} {
			for _, size := range []int{0, 37, 10000, 123456} {
				check(journal.WireFrame(mt.String(), size), "%s %dB", mt, size)
			}
		}
		for _, kind = range []journal.Kind{journal.LPMOpExec, journal.LPMOpReplay} {
			for _, op := range [][2]uint64{{30, 7}, {1<<31 - 1, 1<<31 - 1}, {1 << 31, 7}, {30, 1 << 31}, {1<<64 - 1, 1<<64 - 1}} {
				check(journal.Op("felipe", "vax1", op[0], op[1], mt.String()),
					"user=%s op=%s type=%v", "felipe", wire.OpKey{Origin: "vax1", Inc: op[0], Seq: op[1]}, mt)
			}
		}
	}

	kind = journal.KernelEvent
	for ev := proc.EventKind(0); ev <= proc.EvClose+1; ev++ {
		for _, id := range []proc.GPID{{Host: "vax1", PID: 6}, {Host: "h24", PID: 12345}} {
			check(journal.EventMessage(ev.String(), id.Host, int32(id.PID)), "%s proc=%s", ev, id)
		}
	}

	// The process lifecycle, what the kernel's sites formatted.
	for _, pid := range []proc.PID{1, 6, 1<<31 - 1} {
		kind = journal.KernelSpawn
		check(journal.Spawn(int32(pid), "worker", "felipe"), "pid=%d name=%s user=%s", pid, "worker", "felipe")
		kind = journal.KernelFork
		check(journal.Fork(int32(pid), int32(pid)+1, "sh"), "parent=%d child=%d name=%s", pid, pid+1, "sh")
		kind = journal.KernelSetParent
		check(journal.SetParent(int32(pid), "", 0), "pid=%d parent=%s", pid, "-")
		check(journal.SetParent(int32(pid), "vax2", 5), "pid=%d parent=%s", pid, proc.GPID{Host: "vax2", PID: 5})
		kind = journal.KernelExit
		for _, code := range []int{0, 1, 137} {
			check(journal.Exit(int32(pid), int32(code), ""), "pid=%d code=%d", pid, code)
			for _, sig := range []proc.Signal{proc.SIGKILL, proc.SIGTERM, proc.SIGINT} {
				check(journal.Exit(int32(pid), int32(code), sig.String()), "pid=%d code=%d sig=%v", pid, code, sig)
			}
		}
	}

	// The sibling circuits and sweeps, what lpm's sites formatted.
	const chanKey = "vax2:10003->vax1:2002"
	kind = journal.LPMSiblingAuth
	check(journal.SiblingAuth("felipe", chanKey, "vax2"), "user=%s chan=%s from=%s", "felipe", chanKey, "vax2")
	kind = journal.SnapshotTaken
	for _, partial := range []string{"", "vax3,vax4"} {
		const procs = "<vax1,7>|<vax1,6>|running;<vax1,6>|-|exited"
		check(journal.Snapshot("felipe", procs, partial), "user=%s procs=%s partial=%s", "felipe", procs, partial)
	}
	for _, seq := range []uint64{1, 12, 1<<31 - 1} {
		sweep := fmt.Sprintf("%s#%d", "vax1", seq)
		kind = journal.StatusRequest
		for _, hosts := range []string{"", "vax1,vax2,vax3"} {
			check(journal.SweepRequest("felipe", "vax1", int32(seq), hosts), "user=%s sweep=%s hosts=%s", "felipe", sweep, hosts)
		}
		kind = journal.StatusReport
		for _, ok := range []bool{true, false} {
			check(journal.SweepReport("felipe", "vax1", int32(seq), "vax2", ok),
				"user=%s sweep=%s host=%s ok=%s", "felipe", sweep, "vax2", strconv.FormatBool(ok))
		}
	}

	// The stamp of a flood hop, what lpm's stampID rendered through
	// Sprintf, and the origin and done records that extend it; the last
	// seq is past the slot and rides whole in the origin's.
	for _, at := range []time.Duration{0, 1500 * time.Microsecond, 2*time.Minute + 3*time.Second + 1, 3 * time.Hour} {
		for _, seq := range []uint64{1, 1<<31 - 1, 1 << 31} {
			stamp := journal.FloodStamp("felipe", "h23", at, seq)
			for _, kind = range []journal.Kind{journal.LPMFloodApply, journal.LPMFloodDup} {
				check(stamp, "user=%s stamp=%s@%v#%d", "felipe", "h23", at, seq)
			}
			kind = journal.LPMFloodOrigin
			check(journal.FloodOrigin(stamp, wire.MsgSnapshotReq.String()),
				"user=%s stamp=%s@%v#%d inner=%v", "felipe", "h23", at, seq, wire.MsgSnapshotReq)
			kind = journal.LPMFloodDone
			for _, lists := range [][2]string{{"", ""}, {"h01,h23", ""}, {"h23", "h02,h05"}} {
				check(journal.FloodDone(stamp, lists[0], lists[1]),
					"user=%s stamp=%s@%v#%d hosts=%s partial=%s", "felipe", "h23", at, seq, lists[0], lists[1])
			}
		}
	}

	// Every edge and reason of a circuit step, what lpm's circuitTransition
	// formatted; past the last state is the "invalid" name, and a
	// suspicion step carries the detector's level.
	reasons := []string{"dial", "dial-failed", "hello", "hello-in", "auth-client", "auth-server",
		"suspicion", "traffic", "detector", "close", "peer-lost", "superseded", "exit"}
	const format = "user=%s peer=%s chan=%s from=%s to=%s reason=%s"
	kind = journal.CircuitTransition
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

	// The network's topology faults, what simnet's sites concatenated.
	kind = journal.NetPartition
	for _, groups := range [][]string{nil, {"a,b"}, {"a,b", "c"}, {"h01,h02,h03", "h04", "h05,h06"}} {
		check(journal.Partition(strings.Join(groups, "|")), "%s", "groups="+strings.Join(groups, "|"))
	}
	for _, kind = range []journal.Kind{journal.NetFlapDown, journal.NetFlapUp} {
		check(journal.Link("vax1", "vax2"), "link=%s|%s", "vax1", "vax2")
	}

	// The pmd's lookups, what daemon's sites formatted.
	for _, kind = range []journal.Kind{journal.DaemonQuery, journal.DaemonAuthFail} {
		check(journal.Query("felipe", "vax2"), "user=%s from=%s", "felipe", "vax2")
	}
	for _, kind = range []journal.Kind{journal.DaemonLPMFound, journal.DaemonLPMCreated} {
		check(journal.UserLPM("felipe"), "user=%s", "felipe")
	}

	// lpm's cold facts, what its sites formatted.
	for _, pid := range []proc.PID{1, 6, 1<<31 - 1} {
		kind = journal.LPMAdopt
		check(journal.Adopt("felipe", int32(pid)), "user=%s pid=%d", "felipe", pid)
		kind = journal.LPMExitForward
		id := proc.GPID{Host: "vax2", PID: pid}
		check(journal.ExitForward("felipe", id.Host, int32(id.PID), "vax1"), "user=%s proc=%s/%d to=%s", "felipe", id.Host, id.PID, "vax1")
	}
	kind = journal.LPMSiblingReject
	for _, reason := range []string{"lpm exited", "user mismatch", "token: auth: bad token", "cross-dial"} {
		check(journal.SiblingReject("vax2", reason), "from=%s reason=%s", "vax2", reason)
	}
	kind = journal.LPMRelayOrigin
	check(journal.Relay("felipe", "h05", "h02"), "user=%s dest=%s via=%s", "felipe", "h05", "h02")
	kind = journal.LPMRelayForward
	check(journal.Relay("felipe", "h05", "h03"), "user=%s dest=%s next=%s", "felipe", "h05", "h03")
	kind = journal.LPMRedial
	for _, reason := range []string{"recovery", "retry"} {
		check(journal.Redial("felipe", "vax2", reason), "user=%s peer=%s reason=%s", "felipe", "vax2", reason)
	}
	for _, mt := range []wire.MsgType{wire.MsgControl, wire.MsgBroadcast, 47} {
		kind = journal.LPMRetry
		for _, op := range [][2]uint64{{1, 7}, {1 << 31, 1<<32 + 5}, {1<<64 - 1, 1<<64 - 1}} {
			for attempt, backoff := range []time.Duration{200 * time.Millisecond, 1600 * time.Millisecond, 5 * time.Second} {
				key := wire.OpKey{Origin: "vax1", Inc: op[0], Seq: op[1]}
				check(journal.Retry("felipe", key.Origin, key.Inc, key.Seq, mt.String(), attempt+2, backoff),
					"user=%s op=%s type=%v attempt=%d backoff=%v", "felipe", key, mt, attempt+2, backoff)
			}
		}
		kind = journal.LPMTimeout
		for _, op := range []uint64{0, 7, 1<<31 - 1, 1 << 31, 1<<32 + 5, 1<<64 - 1} {
			check(journal.Timeout("felipe", "vax2", mt.String(), op), "user=%s peer=%s type=%v op=%d", "felipe", "vax2", mt, op)
		}
	}

	kind = journal.LPMControl
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
		j.AppendDetail(journal.WireEncode, "a", journal.WireFrame("Control", i), 0, 0)
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
