package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ppm/internal/calib"
	"ppm/internal/proc"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	ev := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("payload")}
	got, err := DecodeEnvelope(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgControl || got.ReqID != 42 || string(got.Body) != "payload" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEnvelopeGarbage(t *testing.T) {
	if _, err := DecodeEnvelope([]byte{1, 2}); err == nil {
		t.Fatal("expected error on truncated envelope")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgControl.String() != "Control" || MsgKernelEvent.String() != "KernelEvent" {
		t.Fatal("known names wrong")
	}
	if MsgType(999).String() != "MsgType(999)" {
		t.Fatal("unknown formatting wrong")
	}
}

func TestControlOpStrings(t *testing.T) {
	want := map[ControlOp]string{
		OpStop: "stop", OpForeground: "fg", OpBackground: "bg",
		OpKill: "kill", OpSignal: "signal", ControlOp(9): "op#9",
	}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d: %q != %q", op, op.String(), s)
		}
	}
}

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

func TestKernelEventIsExactly112Bytes(t *testing.T) {
	evs := []proc.Event{
		{},
		{At: time.Second, Kind: proc.EvFork, Proc: proc.GPID{Host: "vax1", PID: 1}, Child: proc.GPID{Host: "vax1", PID: 2}},
		{Kind: proc.EvExit, Proc: proc.GPID{Host: "a-very-long-host-name-indeed", PID: 12345},
			Detail: "a detail string that is far too long to fit", Rusage: proc.Rusage{CPUTime: time.Hour}},
	}
	for i, ev := range evs {
		b := EncodeKernelEvent(ev)
		if len(b) != calib.KernelMsgBytes {
			t.Fatalf("case %d: len = %d, want %d", i, len(b), calib.KernelMsgBytes)
		}
	}
}

func TestKernelEventRoundTrip(t *testing.T) {
	ev := proc.Event{
		At:     1500 * time.Millisecond,
		Kind:   proc.EvExit,
		Proc:   proc.GPID{Host: "vax1", PID: 9},
		Signal: proc.SIGTERM,
		Rusage: proc.Rusage{CPUTime: 2 * time.Second, Syscalls: 44},
	}
	got, err := DecodeKernelEvent(EncodeKernelEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	if got.At != ev.At || got.Kind != ev.Kind || got.Proc != ev.Proc ||
		got.Signal != ev.Signal || got.Rusage.Syscalls != 44 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestKernelEventTruncatesLongFields(t *testing.T) {
	ev := proc.Event{
		Kind:   proc.EvExec,
		Proc:   proc.GPID{Host: "host-name-that-is-way-over-fourteen-bytes", PID: 1},
		Detail: "this detail exceeds sixteen bytes easily",
	}
	got, err := DecodeKernelEvent(EncodeKernelEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Proc.Host) > 14 || len(got.Detail) > 16 {
		t.Fatalf("fields not truncated: %+v", got)
	}
}

func TestStampVerify(t *testing.T) {
	key := []byte("user-secret")
	s := NewStamp(key, "vax1", time.Second, 3)
	if !s.Verify(key) {
		t.Fatal("valid stamp rejected")
	}
	if s.Verify([]byte("other-key")) {
		t.Fatal("stamp verified under wrong key")
	}
	forged := s
	forged.Origin = "evil"
	if forged.Verify(key) {
		t.Fatal("forged origin accepted")
	}
}

func TestStampKeyUniqueAndStable(t *testing.T) {
	key := []byte("k")
	a := NewStamp(key, "vax1", time.Second, 1)
	b := NewStamp(key, "vax1", time.Second, 2)
	c := NewStamp(key, "vax2", time.Second, 1)
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Fatal("stamp keys should differ across seq and origin")
	}
	if a.Key() != NewStamp(key, "vax1", time.Second, 1).Key() {
		t.Fatal("stamp key should be deterministic")
	}
}

func TestStampEncodePreservesSignature(t *testing.T) {
	key := []byte("k")
	s := NewStamp(key, "vax1", 5*time.Second, 8)
	var got Stamp
	if err := Decode(Encode(&s), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Verify(key) {
		t.Fatal("decoded stamp failed verification")
	}
	if !bytes.Equal(got.Sig, s.Sig) {
		t.Fatal("signature corrupted")
	}
}

func TestFloodResultRoundTrip(t *testing.T) {
	m := FloodResult{OK: true, Count: 7, Procs: []proc.Info{sampleInfo()}, Partial: []string{"sun3"}}
	var got, got2 FloodResult
	if err := Decode(Encode(&m), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if err := Decode(Encode(&FloodResult{Dup: true}), &got2); err != nil {
		t.Fatal(err)
	}
	if !got2.Dup || got2.OK {
		t.Fatalf("dup round trip: %+v", got2)
	}
}

func TestRelayRoundTrip(t *testing.T) {
	m := Relay{User: "felipe", Dest: "sun3", Path: []string{"vax2", "sun3"}, Inner: []byte("req")}
	var got Relay
	if err := Decode(Encode(&m), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v", got)
	}
	r := RelayResp{OK: true, Inner: []byte("resp")}
	var got2 RelayResp
	if err := Decode(Encode(&r), &got2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, r) {
		t.Fatalf("round trip: %+v", got2)
	}
}

func TestFloodResultRoutesRoundTrip(t *testing.T) {
	m := FloodResult{OK: true, Hosts: []string{"b", "c"}, Routes: []string{"a/b", "a/b/c"}}
	var got FloodResult
	if err := Decode(Encode(&m), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestWatchReqRoundTrip(t *testing.T) {
	m := WatchReq{
		User: "felipe", Kind: 3, Signal: proc.SIGUSR1,
		Proc: proc.GPID{Host: "b", PID: 9},
		Op:   OpKill, ActionSig: proc.SIGTERM,
		Target: proc.GPID{Host: "a", PID: 4},
	}
	var got, got2 WatchReq
	if err := Decode(Encode(&m), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v", got)
	}
	rm := WatchReq{User: "felipe", Remove: true, ID: 7}
	if err := Decode(Encode(&rm), &got2); err != nil || !got2.Remove || got2.ID != 7 {
		t.Fatalf("remove round trip: %+v err=%v", got2, err)
	}
	resp := WatchResp{OK: true, ID: 42}
	var got3 WatchResp
	if err := Decode(Encode(&resp), &got3); err != nil || !reflect.DeepEqual(got3, resp) {
		t.Fatalf("resp round trip: %+v err=%v", got3, err)
	}
}
