package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"ppm/internal/calib"
	"ppm/internal/proc"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	ev := Envelope{Type: MsgControl, ReqID: 42, Body: []byte("payload")}
	got, err := DecodeEnvelopeBorrow(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgControl || got.ReqID != 42 || string(got.Body) != "payload" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEnvelopeGarbage(t *testing.T) {
	if _, err := DecodeEnvelopeBorrow([]byte{1, 2}); err == nil {
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
	sg := NewSigner([]byte("user-secret"))
	s := sg.Mint("vax1", time.Second, 3)
	if !sg.Verify(&s) {
		t.Fatal("valid stamp rejected")
	}
	if NewSigner([]byte("other-key")).Verify(&s) {
		t.Fatal("stamp verified under wrong key")
	}
	forged := s
	forged.Origin = "evil"
	if sg.Verify(&forged) {
		t.Fatal("forged origin accepted")
	}
}

// A warm signer mints and verifies in its own buffers; what it refuses
// and what it signs are what the per-stamp HMAC it replaced did.
func TestSignerVerifyZeroAllocs(t *testing.T) {
	// Signatures captured from the free function NewStamp, which built a
	// fresh hmac.New(sha256.New, key) per stamp, before Signer replaced it.
	for _, row := range []struct {
		key, origin string
		at          time.Duration
		seq         uint64
		sig         string
	}{
		{"user-secret", "vax1", time.Second, 3,
			"af30d138cbc0dff6503c957e6255798999753e1421348c0fb19ddbaee8d3dc76"},
		{"k", "h23", 2*time.Minute + 3*time.Second + 1, 1 << 31,
			"a72a0f250a6996d34e5f22ce53d547de1401ca1e2daccf66a332d3c0b532abf3"},
		{"a-much-longer-key-than-one-sha256-block-of-sixty-four-bytes-takes-to-hold", "", 0, 0,
			"cb6e0f8140575c341c339947e9275b6c878162592774d4ccce9038a1630a11ab"},
	} {
		sg := NewSigner([]byte(row.key))
		for i := 0; i < 2; i++ { // the second mint runs on the reset MAC
			if got := hex.EncodeToString(sg.Mint(row.origin, row.at, row.seq).Sig); got != row.sig {
				t.Errorf("mint %d of %q@%v#%d signed %s, NewStamp signed %s", i, row.origin, row.at, row.seq, got, row.sig)
			}
		}
	}

	sg, other := NewSigner([]byte("user-secret")), NewSigner([]byte("other-key"))
	minted := sg.Mint("vax1", time.Second, 3)
	good := minted
	good.Sig = bytes.Clone(minted.Sig) // as a decoded stamp holds it: its own bytes
	foreign := other.Mint("vax1", time.Second, 3)
	foreign.Sig = bytes.Clone(foreign.Sig)
	flipped, truncated := good, good
	flipped.Sig = bytes.Clone(good.Sig)
	flipped.Sig[31] ^= 1
	truncated.Sig = good.Sig[:31]
	for name, s := range map[string]*Stamp{
		"signed under another key": &foreign, "flipped signature byte": &flipped,
		"truncated signature": &truncated, "no signature": {Origin: "vax1", At: time.Second, Seq: 3},
	} {
		if sg.Verify(s) {
			t.Errorf("a stamp with %s was accepted", name)
		}
	}
	if !sg.Verify(&good) || !other.Verify(&foreign) {
		t.Error("a valid stamp was refused after the forgeries")
	}
	// The ownership rule: verifying leaves a minted signature alone, the
	// next Mint takes the buffer back.
	if !bytes.Equal(minted.Sig, good.Sig) {
		t.Error("Verify overwrote the signature of the stamp minted before it")
	}
	if sg.Mint("vax9", 0, 1); bytes.Equal(minted.Sig, good.Sig) {
		t.Error("a second Mint left the first stamp's signature in place: Mint no longer signs in the signer's buffer")
	}

	allocs := testing.AllocsPerRun(100, func() {
		s := sg.Mint("vax1", time.Second, 3)
		if !sg.Verify(&s) || !sg.Verify(&good) || sg.Verify(&flipped) {
			t.Fatal("warm signer gave a wrong verdict")
		}
	})
	if allocs != 0 {
		t.Errorf("mint + verify on a warm signer: %v allocs, want 0", allocs)
	}
}

func TestStampEncodePreservesSignature(t *testing.T) {
	sg := NewSigner([]byte("k"))
	s := sg.Mint("vax1", 5*time.Second, 8)
	var got Stamp
	if err := Decode(Encode(&s), &got); err != nil {
		t.Fatal(err)
	}
	if !sg.Verify(&got) {
		t.Fatal("decoded stamp failed verification")
	}
	if !bytes.Equal(got.Sig, s.Sig) {
		t.Fatal("signature corrupted")
	}
}

func TestFloodResultRoundTrip(t *testing.T) {
	m := FloodResult{OK: true, Count: 7, Procs: ListOf(sampleInfo()), Partial: ListOf("sun3")}
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
	m := FloodResult{OK: true, Hosts: ListOf("b", "c"), Routes: ListOf("a/b", "a/b/c")}
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
