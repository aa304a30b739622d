package wire_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ppm/internal/auth"
	"ppm/internal/calib"
	"ppm/internal/proc"
	"ppm/internal/status"
	"ppm/internal/wire"
)

// kernelEvent gives the kernel-to-LPM event, which crosses the wire
// through EncodeKernelEvent/DecodeKernelEvent and not as an envelope
// body, a row in the table: the same event walk, without the padding.
type kernelEvent struct{ proc.Event }

func (k *kernelEvent) Fields(c *wire.Coder) { c.Event(&k.Event) }

func sampleInfo() proc.Info {
	return proc.Info{
		ID:     proc.GPID{Host: "vax1", PID: 17},
		Parent: proc.GPID{Host: "vax2", PID: 3},
		Name:   "compute",
		User:   "felipe",
		State:  proc.Stopped,
		Rusage: proc.Rusage{
			CPUTime: 3 * time.Second, Syscalls: 120, MsgsSent: 5, MsgsRecv: 7, MaxRSSKB: 640,
		},
		ExitCode:  0,
		StartedAt: time.Second,
		ExitedAt:  0,
	}
}

func sampleEvent() proc.Event {
	return proc.Event{
		At: 1500 * time.Millisecond, Kind: proc.EvExit,
		Proc: proc.GPID{Host: "vax1", PID: 9}, Child: proc.GPID{Host: "vax1", PID: 2},
		Signal: proc.SIGTERM, Detail: "exit 3",
		Rusage: proc.Rusage{CPUTime: 2 * time.Second, Syscalls: 44},
	}
}

var sampleStamp = wire.NewSigner([]byte("k")).Mint("vax1", time.Second, 9)

// bodies is every body the protocol carries, populated: rows 0..n-1 are
// the manifest's ops 1..n in order (TestBodiesCoverTheManifest), then
// the three bodies that travel nested or pre-encoded inside another.
// It is the one table behind the golden bytes, the round trips and the
// fuzz target, so a new message type is one new row.
var bodies = []struct {
	op   wire.MsgType // 0: not an envelope type
	full wire.Message
}{
	{wire.MsgLPMQuery, &wire.LPMQuery{User: "felipe", Token: []byte{1, 2}}},
	{wire.MsgLPMQueryResp, &wire.LPMQueryResp{OK: true, AcceptHost: "vax1", AcceptPort: 2001, Created: true}},
	{wire.MsgHello, &wire.Hello{User: "felipe", FromHost: "vax2", Token: []byte{9}, Stamp: sampleStamp, CCSHost: "vax1", CCSPort: 2001, Inc: 4}},
	{wire.MsgHelloResp, &wire.HelloResp{OK: false, Reason: "bad token", Inc: 6}},
	{wire.MsgCreateProc, &wire.CreateProc{User: "felipe", Name: "worker", Parent: proc.GPID{Host: "vax1", PID: 4}, Foreground: true}},
	{wire.MsgCreateAck, &wire.CreateAck{OK: true, ID: proc.GPID{Host: "vax2", PID: 31}}},
	{wire.MsgControl, &wire.Control{User: "felipe", Target: proc.GPID{Host: "vax2", PID: 31}, Op: wire.OpSignal, Signal: proc.SIGUSR1}},
	{wire.MsgControlResp, &wire.ControlResp{OK: true, State: proc.Stopped}},
	{wire.MsgSnapshotReq, &wire.SnapshotReq{User: "felipe", Forward: true}},
	{wire.MsgSnapshotResp, &wire.SnapshotResp{OK: true, Procs: []proc.Info{sampleInfo()}, Partial: []string{"sun3"}}},
	{wire.MsgStatsReq, &wire.StatsReq{User: "felipe", Target: proc.GPID{Host: "vax1", PID: 17}}},
	{wire.MsgStatsResp, &wire.StatsResp{OK: true, Info: sampleInfo()}},
	{wire.MsgHistoryReq, &wire.HistoryReq{User: "felipe", Proc: proc.GPID{Host: "vax1", PID: 17}, Kinds: []uint8{1, 3}, Since: time.Second, Limit: 10}},
	{wire.MsgHistoryResp, &wire.HistoryResp{OK: true, Events: []proc.Event{
		{At: time.Second, Kind: proc.EvFork, Proc: proc.GPID{Host: "vax1", PID: 1}, Child: proc.GPID{Host: "vax1", PID: 2}},
		sampleEvent(),
	}}},
	{wire.MsgFDReq, &wire.FDReq{User: "felipe", Target: proc.GPID{Host: "vax1", PID: 17}}},
	{wire.MsgFDResp, &wire.FDResp{OK: true, Open: []string{"0:/dev/tty", "3:/tmp/data"}}},
	{wire.MsgBroadcast, &wire.Broadcast{Stamp: sampleStamp, Seq: 7, Route: wire.ListOf("vax1", "vax2"), Inner: []byte("req")}},
	{wire.MsgBroadcastResp, &wire.BroadcastResp{Seq: 7, From: "sun3", Route: wire.ListOf("vax2", "vax1"), Inner: []byte("resp")}},
	{wire.MsgKernelEvent, &kernelEvent{sampleEvent()}},
	{wire.MsgPing, &wire.Ping{FromHost: "vax2", User: "felipe"}},
	{wire.MsgPong, &wire.Pong{FromHost: "vax1", CCSHost: "vax1", CCSPort: 2001, IsCCS: true}},
	{wire.MsgCCSUpdate, &wire.CCSUpdate{CCSHost: "vax9", CCSPort: 2100}},
	{wire.MsgError, &wire.ErrorResp{Reason: "no such process"}},
	{wire.MsgRelay, &wire.Relay{User: "felipe", Dest: "sun3", Path: []string{"vax2", "sun3"}, Inner: []byte("req")}},
	{wire.MsgRelayResp, &wire.RelayResp{OK: true, Inner: []byte("resp")}},
	{wire.MsgWatch, &wire.WatchReq{
		User: "felipe", ID: 7, Kind: 3, Signal: proc.SIGUSR1, Proc: proc.GPID{Host: "b", PID: 9},
		Op: wire.OpKill, ActionSig: proc.SIGTERM, Target: proc.GPID{Host: "a", PID: 4},
	}},
	{wire.MsgWatchResp, &wire.WatchResp{OK: true, ID: 42}},
	{wire.MsgStatusReq, &wire.StatusReq{User: "felipe", Sweep: "vax1#3"}},
	{wire.MsgStatusResp, &wire.StatusResp{OK: true, Report: []byte("report")}},
	{wire.MsgLinkTest, &wire.LinkTest{FromHost: "vax1", Seq: 12}},
	{wire.MsgLinkTestResp, &wire.LinkTestResp{FromHost: "vax2", Seq: 12}},
	{wire.MsgProcExit, &wire.ProcExit{User: "felipe", Event: sampleEvent(), Info: sampleInfo()}},
	{wire.MsgProcExitResp, &wire.ProcExitResp{OK: false, Reason: "bad exit notification"}},

	{0, &wire.FloodResult{
		OK: true, Count: 7, Procs: wire.ListOf(sampleInfo()), Partial: wire.ListOf("sun3"),
		Hosts: wire.ListOf("b", "c"), Routes: wire.ListOf("a/b", "a/b/c"),
	}},
	{0, &sampleStamp},
	{0, &status.Report{
		Host: "h02", At: 5 * time.Second,
		ProcsLive: 3, ProcsTotal: 7, Load100: 123,
		TimersPending: 4,
		DaemonUp:      true, DaemonLPMs: 2,
		NetUp: true, NetConns: 3,
		Circuits: []status.CircuitStatus{
			{Peer: "h01", State: "established", Age: 3 * time.Second},
			{Peer: "h03", State: "suspect", Age: 500 * time.Millisecond, Suspicion: 2},
		},
		PendingReqs: 1, RetryBackoffs: 2,
		ReplyCache: 5, InflightOps: 1,
		JournalLen: 100, JournalDropped: 7,
		OpLatencies: []status.OpLatency{
			{Op: "Control", Count: 9, P50: 10 * time.Millisecond, P95: 40 * time.Millisecond, P99: 80 * time.Millisecond},
		},
	}},
}

// bodyName is the row's type name, "Control" for *wire.Control.
func bodyName(m wire.Message) string { return reflect.TypeOf(m).Elem().Name() }

// zeroOf returns a new zero value of the row's type.
func zeroOf(m wire.Message) wire.Message {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wire.Message)
}

// TestBodiesCoverTheManifest holds the table to the protocol-surface
// manifest: one row per op, in ordinal order, so an op added without a
// row here fails before it can go unfuzzed.
func TestBodiesCoverTheManifest(t *testing.T) {
	op := wire.MsgType(1)
	for ; !strings.HasPrefix(op.String(), "MsgType("); op++ {
		if int(op) > len(bodies) || bodies[op-1].op != op {
			t.Fatalf("bodies row %d is not op %v", op-1, op)
		}
	}
	for _, b := range bodies[op-1:] {
		if b.op != 0 {
			t.Fatalf("row %s claims op %d, which the manifest does not have", bodyName(b.full), b.op)
		}
	}
}

// TestGoldenBodies pins the wire bytes of every body, populated and
// zero, plus the padded 112-byte kernel event, against
// testdata/bodies.golden. The file was generated by the hand-written
// per-type Encode methods this codec replaced and is not regenerated:
// simnet charges virtual time by encoded size, so a changed byte here
// is a changed Table 1-3.
func TestGoldenBodies(t *testing.T) {
	f, err := os.Open("testdata/bodies.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, hexBytes, _ := strings.Cut(sc.Text(), " ")
		golden[name] = hexBytes
	}
	check := func(name string, got []byte) {
		t.Helper()
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden line; add %s %x", name, name, got)
		} else if hex.EncodeToString(got) != want {
			t.Errorf("%s: wire bytes changed\n got %x\nwant %s", name, got, want)
		}
		delete(golden, name)
	}
	for _, b := range bodies {
		check(bodyName(b.full)+"/full", wire.Encode(b.full))
		check(bodyName(b.full)+"/zero", wire.Encode(zeroOf(b.full)))
	}
	check("KernelEvent112/full", wire.EncodeKernelEvent(sampleEvent()))
	check("KernelEvent112/zero", wire.EncodeKernelEvent(proc.Event{}))
	for name := range golden {
		t.Errorf("golden line %s has no table row", name)
	}
}

// TestAllMessageRoundTrips: every row decodes back to what was encoded,
// and no structured body decodes from its first half.
func TestAllMessageRoundTrips(t *testing.T) {
	for _, b := range bodies {
		t.Run(bodyName(b.full), func(t *testing.T) {
			enc := wire.Encode(b.full)
			got := zeroOf(b.full)
			if err := wire.Decode(enc, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, b.full) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b.full)
			}
			// A lone bool or short string may decode validly from a
			// prefix; only the clearly structured bodies must refuse.
			if err := wire.Decode(enc[:len(enc)/2], zeroOf(b.full)); err == nil && len(enc) > 8 {
				t.Fatalf("truncated decode should fail (len %d)", len(enc))
			}
		})
	}
}

// scalars exercises the interpretations the coder adds on top of the
// byte layer — signed, boolean, narrowed — at values the protocol's own
// samples do not reach.
type scalars struct {
	T, F bool
	I32  int32
	I64  int64
	Int  int
	Enum int
	D    time.Duration
}

func (s *scalars) Fields(c *wire.Coder) {
	c.Bool(&s.T)
	c.Bool(&s.F)
	c.I32(&s.I32)
	c.I64(&s.I64)
	c.Int(&s.Int)
	c.Enum(&s.Enum)
	c.Duration(&s.D)
}

func TestCoderScalars(t *testing.T) {
	want := scalars{T: true, I32: -5, I64: -1 << 40, Int: -7, Enum: 255, D: -42 * time.Millisecond}
	enc := wire.Encode(&want)
	if len(enc) != 1+1+4+8+4+1+8 {
		t.Fatalf("%d bytes: %x", len(enc), enc)
	}
	var got scalars
	if err := wire.Decode(enc, &got); err != nil || got != want {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	enc[0] = 0x80 // any nonzero byte is true
	if err := wire.Decode(enc, &got); err != nil || !got.T {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestKernelEventSharesTheEventWalk: the fixed-size form is the event
// walk plus zero padding, so the table's unpadded row and the padded
// message decode to the same event.
func TestKernelEventSharesTheEventWalk(t *testing.T) {
	ev := sampleEvent()
	padded := wire.EncodeKernelEvent(ev)
	if len(padded) != calib.KernelMsgBytes || !bytes.HasPrefix(padded, wire.Encode(&kernelEvent{ev})) {
		t.Fatalf("padded form %x does not extend the walk's bytes", padded)
	}
	got, err := wire.DecodeKernelEvent(padded)
	if err != nil || !reflect.DeepEqual(got, ev) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// decodeControl is a plain function holding a concrete *T, the shape of
// every product call site: Decode must inline into it and m.Fields be
// devirtualized, or req and the coder move to the heap.
func decodeControl(b []byte) (wire.Control, error) {
	var req wire.Control
	err := wire.Decode(b, &req)
	return req, err
}

// TestBodyAllocs holds Encode and Decode to the allocation counts of
// the hand-written per-type functions they replaced: the encode buffer
// and the decoded strings, slices and list growth, and nothing for the
// message, the coder or the interface they travel through. It turns red
// on a toolchain or an edit that stops the two entry points inlining
// (see Encode).
func TestBodyAllocs(t *testing.T) {
	procs := make([]proc.Info, 8)
	for i := range procs {
		procs[i] = sampleInfo()
	}
	control := wire.Encode(&wire.Control{User: "felipe", Target: proc.GPID{Host: "vax2", PID: 31}, Op: wire.OpStop})
	controlResp := wire.Encode(&wire.ControlResp{OK: true, State: proc.Stopped})
	snapshot := wire.Encode(&wire.SnapshotResp{OK: true, Procs: procs})
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"encode Control", 1, func() {
			wire.Encode(&wire.Control{User: "felipe", Target: proc.GPID{Host: "vax2", PID: 31}, Op: wire.OpStop})
		}},
		{"decode ControlResp", 0, func() {
			var resp wire.ControlResp
			if err := wire.Decode(controlResp, &resp); err != nil || !resp.OK {
				t.Fatal("bad decode")
			}
		}},
		{"decode Control", 2, func() { // the user and host strings
			if req, err := decodeControl(control); err != nil || req.Op != wire.OpStop {
				t.Fatal("bad decode")
			}
		}},
		{"encode SnapshotResp x8", 1, func() {
			wire.Encode(&wire.SnapshotResp{OK: true, Procs: procs})
		}},
		{"decode SnapshotResp x8", 33, func() { // 4 strings a process, the list sized once
			var resp wire.SnapshotResp
			if err := wire.Decode(snapshot, &resp); err != nil || len(resp.Procs) != 8 {
				t.Fatal("bad decode")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %.0f allocs, want %.0f", tc.name, got, tc.want)
		}
	}
}

// TestDecodeHopNamesStayBounded: bodies naming 5,000 distinct hosts,
// decoded through DecodeHop into one user's table, fill it only to its
// bound of 1,024 names, so peers naming ever-new hosts pin no more; each
// string still reads as its bytes, and a name held before decodes with
// no allocation.
func TestDecodeHopNamesStayBounded(t *testing.T) {
	names := auth.NewDirectory().AddUser("felipe").Names
	decode := func(host string) {
		body := wire.Encode(&wire.Control{User: "felipe", Target: proc.GPID{Host: host, PID: 31}, Op: wire.OpStop})
		var req wire.Control
		if err := wire.DecodeHop(body, &req, names); err != nil || req.User != "felipe" || req.Target.Host != host {
			t.Fatalf("%q decoded as %q on %q (%v)", host, req.User, req.Target.Host, err)
		}
	}
	for i := range 5000 {
		decode(fmt.Sprintf("host%04d", i))
	}
	if names.Len() != 1024 {
		t.Fatalf("the table holds %d names after 5,000 hosts, want its bound of 1,024", names.Len())
	}
	if last := names.Name(uint32(names.Len() - 1)); last != "host1021" {
		t.Errorf("the last name held is %q, want host1021", last)
	}
	held := wire.Encode(&wire.Control{User: "felipe", Target: proc.GPID{Host: "host0007", PID: 31}, Op: wire.OpStop})
	if allocs := testing.AllocsPerRun(100, func() {
		var req wire.Control
		if wire.DecodeHop(held, &req, names) != nil {
			t.Fatal("bad decode")
		}
	}); allocs != 0 {
		t.Errorf("a held name decodes with %.0f allocs, want 0", allocs)
	}
}

// TestHostileCountPresizesToBytesLeft: a process list claiming 65,535
// records over a short body is sized once, for no more elements than
// bytes follow its count (each takes one at least), not for the count.
func TestHostileCountPresizesToBytesLeft(t *testing.T) {
	body := append([]byte{1, 0, 0, 0xff, 0xff}, make([]byte, 40)...)
	var resp wire.SnapshotResp
	if err := wire.Decode(body, &resp); err == nil {
		t.Fatal("a short body decoded")
	}
	if left := len(body) - 5; cap(resp.Procs) > left {
		t.Fatalf("%d process slots for %d bytes left", cap(resp.Procs), left)
	}
}

// heldBytes sums the lengths of every string and slice reachable from
// v: what a decoded value holds on to, in elements.
func heldBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		return heldBytes(v.Elem())
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		n = v.Len()
		for i := 0; i < v.Len(); i++ {
			n += heldBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += heldBytes(v.Field(i))
		}
	}
	return n
}

// FuzzDecode throws arbitrary bytes at every body's walk (op picks the
// table row), seeded with the golden bodies. Decoding never panics;
// what it builds stays proportional to the input — every string byte
// and list element is paid for by a byte of body, so a count of 65535
// on a short buffer allocates one element, not 65535 — and a body that
// decodes re-encodes to bytes that decode to the same value.
func FuzzDecode(f *testing.F) {
	for i, b := range bodies {
		f.Add(uint8(i), wire.Encode(b.full))
		f.Add(uint8(i), wire.Encode(zeroOf(b.full)))
	}
	f.Add(uint8(wire.MsgSnapshotResp-1), []byte{1, 0, 0, 0xff, 0xff})
	f.Add(uint8(wire.MsgSnapshotResp-1), append([]byte{1, 0, 0, 0xff, 0xff}, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		row := bodies[int(op)%len(bodies)]
		got := zeroOf(row.full)
		err := wire.Decode(body, got)
		if held := heldBytes(reflect.ValueOf(got)); held > len(body)+1 {
			t.Fatalf("%s holds %d elements from a %d-byte body", bodyName(got), held, len(body))
		}
		if k, ok := got.(*kernelEvent); ok {
			ev, kerr := wire.DecodeKernelEvent(body)
			if (kerr == nil) != (err == nil) || kerr == nil && !reflect.DeepEqual(ev, k.Event) {
				t.Fatalf("DecodeKernelEvent %+v, %v; the event walk %+v, %v", ev, kerr, k.Event, err)
			}
		}
		if err != nil {
			return
		}
		again := zeroOf(row.full)
		if err := wire.Decode(wire.Encode(got), again); err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("%s re-encoded and decoded to %+v (%v), was %+v", bodyName(got), again, err, got)
		}
	})
}
