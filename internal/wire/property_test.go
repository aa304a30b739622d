package wire

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ppm/internal/proc"
)

// Property round trips with randomized contents for every message
// carrying interesting structure.

func clampStr(s string) string {
	if len(s) > 200 {
		return s[:200]
	}
	return s
}

func TestPropertyControlRoundTrip(t *testing.T) {
	f := func(user, host string, pid int32, op uint8, sig int32) bool {
		m := Control{
			User:   clampStr(user),
			Target: proc.GPID{Host: clampStr(host), PID: proc.PID(pid)},
			Op:     ControlOp(op),
			Signal: proc.Signal(sig),
		}
		var got Control
		return Decode(Encode(&m), &got) == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySnapshotRespRoundTrip(t *testing.T) {
	f := func(names []string, pids []int16, states []uint8, partial []string) bool {
		n := len(names)
		if len(pids) < n {
			n = len(pids)
		}
		if len(states) < n {
			n = len(states)
		}
		if n > 20 {
			n = 20
		}
		m := SnapshotResp{OK: true}
		for i := 0; i < n; i++ {
			m.Procs = append(m.Procs, proc.Info{
				ID:    proc.GPID{Host: "h", PID: proc.PID(pids[i])},
				Name:  clampStr(names[i]),
				State: proc.State(states[i]),
			})
		}
		for i, p := range partial {
			if i >= 5 {
				break
			}
			m.Partial = append(m.Partial, clampStr(p))
		}
		var got SnapshotResp
		return Decode(Encode(&m), &got) == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBroadcastRoundTrip(t *testing.T) {
	f := func(origin string, at int64, seq uint64, route []string, inner []byte) bool {
		sg := NewSigner([]byte("k"))
		stamp := sg.Mint(clampStr(origin), time.Duration(at), seq)
		var rt []string
		for i, r := range route {
			if i >= 8 {
				break
			}
			rt = append(rt, clampStr(r))
		}
		m := Broadcast{Stamp: stamp, Seq: seq, Route: ListOf(rt...), Inner: inner}
		var got Broadcast
		if Decode(Encode(&m), &got) != nil {
			return false
		}
		if !sg.Verify(&got.Stamp) {
			return false
		}
		return reflect.DeepEqual(got, m) ||
			(len(m.Inner) == 0 && len(got.Inner) == 0 && got.Seq == m.Seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHistoryRespRoundTrip(t *testing.T) {
	f := func(kinds []uint8, ats []int32, details []string) bool {
		n := len(kinds)
		if len(ats) < n {
			n = len(ats)
		}
		if len(details) < n {
			n = len(details)
		}
		if n > 16 {
			n = 16
		}
		m := HistoryResp{OK: true}
		for i := 0; i < n; i++ {
			m.Events = append(m.Events, proc.Event{
				At:     time.Duration(ats[i]),
				Kind:   proc.EventKind(kinds[i]),
				Proc:   proc.GPID{Host: "h", PID: 1},
				Detail: clampStr(details[i]),
			})
		}
		var got HistoryResp
		return Decode(Encode(&m), &got) == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEnvelopeNeverPanicsOnMutation(t *testing.T) {
	// Flip bytes of a valid encoding; decoding must never panic and
	// must either fail or produce a structurally valid envelope.
	f := func(idx uint16, val byte) bool {
		env := Envelope{Type: MsgControl, ReqID: 7,
			Body: Encode(&Control{User: "u", Target: proc.GPID{Host: "h", PID: 1}})}
		b := env.Encode()
		b[int(idx)%len(b)] ^= val
		got, err := DecodeEnvelopeBorrow(b)
		if err != nil {
			return true
		}
		_ = Decode(got.Body, &Control{}) // must not panic either
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKernelEventAlwaysFixedSize(t *testing.T) {
	f := func(host, detail string, pid int32, kind uint8, at int64) bool {
		ev := proc.Event{
			At:     time.Duration(at),
			Kind:   proc.EventKind(kind),
			Proc:   proc.GPID{Host: clampStr(host), PID: proc.PID(pid)},
			Detail: clampStr(detail),
		}
		return len(EncodeKernelEvent(ev)) == 112
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
