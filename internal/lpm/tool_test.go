package lpm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppm/internal/auth"
	"ppm/internal/history"
	"ppm/internal/proc"
	"ppm/internal/wire"
)

// connectTool dials a ToolClient synchronously.
func connectTool(t *testing.T, w *world, u *auth.User, host string) *ToolClient {
	t.Helper()
	var tc *ToolClient
	var cerr error
	done := false
	ConnectTool(w.net, u, host, func(c *ToolClient, err error) { tc, cerr, done = c, err, true })
	w.until(func() bool { return done })
	if cerr != nil {
		t.Fatal(cerr)
	}
	return tc
}

func TestToolCreateControlStats(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()

	var id proc.GPID
	done := false
	tc.Create("job", proc.GPID{}, func(g proc.GPID, err error) {
		if err != nil {
			t.Fatal(err)
		}
		id, done = g, true
	})
	w.until(func() bool { return done })
	if id.Host != "vax1" {
		t.Fatalf("created %v", id)
	}

	done = false
	var resp wire.ControlResp
	tc.Control(id, wire.OpStop, 0, func(r wire.ControlResp, err error) {
		if err != nil {
			t.Fatal(err)
		}
		resp, done = r, true
	})
	w.until(func() bool { return done })
	if !resp.OK || resp.State != proc.Stopped {
		t.Fatalf("control resp: %+v", resp)
	}

	done = false
	var info proc.Info
	tc.Stats(id, func(i proc.Info, err error) {
		if err != nil {
			t.Fatal(err)
		}
		info, done = i, true
	})
	w.until(func() bool { return done })
	if info.State != proc.Stopped || info.Name != "job" {
		t.Fatalf("stats: %+v", info)
	}
}

func TestToolSnapshotFloodsAcrossHosts(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	// Seed a computation via the subroutine interface.
	l := w.attach("vax1", u)
	root := w.create(l, "vax1", "root", proc.GPID{})
	w.create(l, "vax2", "worker", root)
	w.run(time.Second)

	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	var snap proc.Snapshot
	done := false
	tc.Snapshot(func(s proc.Snapshot, err error) {
		if err != nil {
			t.Fatal(err)
		}
		snap, done = s, true
	})
	w.until(func() bool { return done })
	if len(snap.Hosts()) != 2 {
		t.Fatalf("tool snapshot hosts = %v", snap.Hosts())
	}
	if !strings.Contains(snap.Render(), "worker") {
		t.Fatalf("snapshot:\n%s", snap.Render())
	}
}

func TestToolBroadcastControl(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	root := w.create(l, "vax1", "root", proc.GPID{})
	w.create(l, "vax2", "worker", root)
	w.run(time.Second)

	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	done := false
	tc.Control(proc.GPID{}, wire.OpStop, 0, func(r wire.ControlResp, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			t.Fatalf("broadcast control: %+v", r)
		}
		done = true
	})
	w.until(func() bool { return done })
	p, _ := w.kerns["vax1"].Lookup(root.PID)
	if p.State != proc.Stopped {
		t.Fatal("root not stopped by tool broadcast")
	}
}

func TestToolRemoteControlForwarded(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	id := w.create(l, "vax2", "remote-job", proc.GPID{})
	w.run(time.Second)

	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	done := false
	tc.Control(id, wire.OpKill, 0, func(r wire.ControlResp, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK || r.State != proc.Exited {
			t.Fatalf("remote control via tool: %+v", r)
		}
		done = true
	})
	w.until(func() bool { return done })
}

func TestToolHistory(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	id := w.create(l, "vax1", "job", proc.GPID{})
	_, _ = w.control(l, id, wire.OpStop, 0)
	w.run(time.Second)

	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	var evs []proc.Event
	done := false
	tc.History(history.Query{Proc: id}, func(e []proc.Event, err error) {
		if err != nil {
			t.Fatal(err)
		}
		evs, done = e, true
	})
	w.until(func() bool { return done })
	if len(evs) == 0 {
		t.Fatal("no history over the tool socket")
	}
}

func TestToolConnectionNotASibling(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	if len(l.SiblingHosts()) != 0 {
		t.Fatalf("tool connection registered as sibling: %v", l.SiblingHosts())
	}
}

func TestToolCloseFailsPending(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	tc := connectTool(t, w, u, "vax1")
	var gotErr error
	done := false
	tc.Create("job", proc.GPID{}, func(_ proc.GPID, err error) { gotErr, done = err, true })
	tc.Close()
	w.run(5 * time.Second)
	if !done {
		t.Fatal("pending tool call never completed")
	}
	if gotErr == nil {
		t.Fatal("pending call should fail on close")
	}
	// Further calls fail immediately.
	done = false
	tc.Create("x", proc.GPID{}, func(_ proc.GPID, err error) { gotErr, done = err, true })
	w.run(time.Second)
	if !done || !errors.Is(gotErr, ErrToolClosed) {
		t.Fatalf("post-close call: done=%v err=%v", done, gotErr)
	}
}

func TestToolWrongUserRejected(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	mallory := w.user("mallory")
	_ = w.attach("vax1", u) // felipe's LPM exists
	// Mallory's ConnectTool creates *her own* LPM (per-user managers);
	// she cannot reach felipe's. Verify she only sees her own world.
	tc := connectTool(t, w, mallory, "vax1")
	defer tc.Close()
	felipeL := w.lpms["vax1/felipe"]
	w.create(felipeL, "vax1", "secret", proc.GPID{})
	var snap proc.Snapshot
	done := false
	tc.Snapshot(func(s proc.Snapshot, err error) {
		if err != nil {
			t.Fatal(err)
		}
		snap, done = s, true
	})
	w.until(func() bool { return done })
	for _, p := range snap.Procs {
		if p.User == "felipe" {
			t.Fatal("mallory's tool saw felipe's process")
		}
	}
}

// A request the LPM refuses — here one whose body names a user other
// than the circuit's — must reach the tool as an error, not as an empty
// successful snapshot or history.
func TestToolRefusedSnapshotAndHistoryAreErrors(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	u := w.user("felipe")
	l := w.attach("vax1", u)
	w.create(l, "vax1", "job", proc.GPID{})
	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()
	tc.user = w.user("mallory") // authenticated as felipe, asking as mallory

	var snapErr, histErr error
	answered := 0
	tc.Snapshot(func(_ proc.Snapshot, err error) { snapErr = err; answered++ })
	tc.History(history.Query{}, func(_ []proc.Event, err error) { histErr = err; answered++ })
	w.until(func() bool { return answered == 2 })
	if !errors.Is(snapErr, ErrRemote) || !strings.Contains(snapErr.Error(), "bad snapshot request") {
		t.Errorf("refused snapshot reached the tool as %v", snapErr)
	}
	if !errors.Is(histErr, ErrRemote) || !strings.Contains(histErr.Error(), "bad history request") {
		t.Errorf("refused history reached the tool as %v", histErr)
	}
}

// A tool's request about a process goes where the process lives, by the
// same rule the subroutine library follows — for every op that names a
// target, not only Control. Two hosts with one process each, so the pids
// collide: serving a vax2 target on vax1 is a silent wrong answer.
func TestToolTargetsAreRoutedLikeTheLibrary(t *testing.T) {
	w := newWorld(t, Config{RequestTimeout: time.Second, Retry: RetryPolicy{MaxAttempts: 1}},
		[]string{"vax1", "vax2"})
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	here := w.create(l, "vax1", "localjob", proc.GPID{})
	there := w.create(l, "vax2", "remotejob", proc.GPID{})
	if here.PID != there.PID {
		t.Fatalf("pids %v and %v do not collide; the fixture proves nothing", here, there)
	}
	w.run(time.Second)
	if _, err := w.kerns["vax2"].OpenFD(there.PID, "/remote/only"); err != nil {
		t.Fatal(err)
	}
	tc := connectTool(t, w, u, "vax1")
	defer tc.Close()

	stats := func(ask func(proc.GPID, func(proc.Info, error)), target proc.GPID) (proc.Info, error) {
		var info proc.Info
		var serr error
		done := false
		ask(target, func(i proc.Info, err error) { info, serr, done = i, err, true })
		w.until(func() bool { return done })
		return info, serr
	}
	fds := func(target proc.GPID) (wire.FDResp, error) {
		var resp wire.FDResp
		var ferr error
		done := false
		req := wire.FDReq{User: u.Name, Target: target}
		tc.call(wire.MsgFDReq, wire.Encode(&req), func(env wire.Envelope, err error) {
			ferr = firstErr(err, wire.Decode(env.Body, &resp))
			done = true
		})
		w.until(func() bool { return done })
		return resp, ferr
	}

	for _, target := range []proc.GPID{here, there} {
		viaTool, terr := stats(tc.Stats, target)
		viaLib, lerr := stats(l.StatsOf, target)
		if terr != nil || lerr != nil {
			t.Fatalf("stats of %v: tool err %v, library err %v", target, terr, lerr)
		}
		if viaTool.ID != target || viaTool.Name != viaLib.Name {
			t.Errorf("tool Stats(%v) returned name=%q id=%v; the library returns name=%q id=%v",
				target, viaTool.Name, viaTool.ID, viaLib.Name, viaLib.ID)
		}
	}
	for target, want := range map[proc.GPID]bool{here: false, there: true} {
		resp, err := fds(target)
		if got := strings.Contains(strings.Join(resp.Open, " "), "/remote/only"); err != nil || !resp.OK || got != want {
			t.Errorf("tool FDReq(%v) = %+v, %v; the vax2 process alone holds /remote/only", target, resp, err)
		}
	}

	done := false
	tc.Control(there, wire.OpStop, 0, func(r wire.ControlResp, err error) {
		if err != nil || !r.OK || r.State != proc.Stopped {
			t.Errorf("tool Control(%v) = %+v, %v", there, r, err)
		}
		done = true
	})
	w.until(func() bool { return done })
	if p, _ := w.kerns["vax1"].Lookup(here.PID); p.State != proc.Running {
		t.Errorf("stopping %v stopped %v", there, here)
	}

	// A dead target host is the op's own refusal carrying the transport
	// error: not a hang, not a reply the tool cannot decode.
	if err := w.net.Crash("vax2"); err != nil {
		t.Fatal(err)
	}
	w.kerns["vax2"].Crash()
	w.run(5 * time.Second)
	if _, err := stats(tc.Stats, there); !errors.Is(err, ErrRemote) {
		t.Errorf("tool Stats of a dead host's process: %v, want a refusal", err)
	}
	if resp, err := fds(there); err != nil || resp.OK || resp.Reason == "" {
		t.Errorf("tool FDReq of a dead host's process: %+v, %v, want a refusal", resp, err)
	}
	done = false
	tc.Control(there, wire.OpStop, 0, func(r wire.ControlResp, err error) {
		if err != nil || r.OK || r.Reason == "" {
			t.Errorf("tool Control of a dead host's process: %+v, %v, want a refusal", r, err)
		}
		done = true
	})
	w.until(func() bool { return done })
}
