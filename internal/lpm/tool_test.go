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
