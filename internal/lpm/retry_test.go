package lpm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ppm/internal/journal"
	"ppm/internal/metrics"
	"ppm/internal/proc"
	"ppm/internal/trace"
	"ppm/internal/wire"
)

// The sibling-RPC reliability layer: retry/redial behavior, the
// at-most-once dedup filter, and the dead-circuit fast-fail path.

// installJournal wires a flight recorder into the world's network so
// LPMs created afterwards journal into it.
func installJournal(w *world) *journal.Journal {
	j := journal.New(func() time.Duration { return w.sched.Now().Duration() })
	w.net.SetRecorder(journal.NewRecorder(w.net.Recorder().Metrics(), nil, j))
	return j
}

// installMetrics wires a registry into the world's network; newWorld
// leaves it nil (metrics off) like a bare simnet.
func installMetrics(w *world) *metrics.Registry {
	reg := metrics.New(func() time.Duration { return w.sched.Now().Duration() })
	w.net.SetRecorder(journal.NewRecorder(reg, nil, w.net.Recorder().Journal()))
	return reg
}

// counter reads one counter of the registry installMetrics wired (0 if
// it never fired).
func (w *world) counter(name string) uint64 {
	return w.net.Recorder().Metrics().Snapshot().Counter(name)
}

func countKind(j *journal.Journal, k journal.Kind) int {
	return len(j.Select(journal.Filter{Kinds: []journal.Kind{k}}))
}

// TestDeadCircuitFailsFast is the regression test for the silent-drop
// bug: a request issued against a circuit that closed before the
// pending entry was registered used to park its caller for the full
// RequestTimeout (the close handler had already drained l.pending).
// It must fail with ErrNoSibling as soon as the send path notices the
// dead circuit.
func TestDeadCircuitFailsFast(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	reg := installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "warm", proc.GPID{})
	w.run(time.Second)

	sb := l.peers["vax2"].sb
	if sb == nil {
		t.Fatal("no warm circuit")
	}
	sb.conn.Close()
	w.run(10 * time.Millisecond) // close handlers run; l.pending drains

	var gotErr error
	done := false
	start := w.sched.Now()
	body := wire.Encode(&wire.Control{User: "felipe", Op: wire.OpStop})
	l.sendRequest(trace.Context{}, sb, wire.MsgControl, body, 0,
		func(_ wire.Envelope, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })

	if !errors.Is(gotErr, ErrNoSibling) {
		t.Fatalf("err = %v, want ErrNoSibling", gotErr)
	}
	// Fail-fast, not a timeout: the default RequestTimeout is 10s.
	if elapsed := msBetween(start, w.sched.Now()); elapsed > 1000 {
		t.Fatalf("dead-circuit request took %.0f ms — parked for the timeout", elapsed)
	}
	if reg.Counter("lpm.request.dead_circuit").Value() == 0 {
		t.Fatal("dead_circuit counter not incremented")
	}
}

// TestDuplicateDeliveryRepliesFromCache: a retransmission (same OpID,
// new ReqID) of an already-executed non-idempotent request is answered
// from the reply cache — one execution, two identical answers.
func TestDuplicateDeliveryRepliesFromCache(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	j := installJournal(w)
	reg := installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	w.create(l, "vax2", "warm", proc.GPID{})
	w.run(time.Second)

	sb := l.peers["vax2"].sb
	body := wire.Encode(&wire.CreateProc{User: "felipe", Name: "dup-job"})
	var acks []wire.CreateAck
	sendOnce := func() {
		l.sendRequest(trace.Context{}, sb, wire.MsgCreateProc, body, 777,
			func(env wire.Envelope, err error) {
				if err != nil {
					t.Fatal(err)
				}
				var a wire.CreateAck
				derr := wire.Decode(env.Body, &a)
				if derr != nil {
					t.Fatal(derr)
				}
				acks = append(acks, a)
			})
	}
	sendOnce()
	w.until(func() bool { return len(acks) == 1 })
	sendOnce() // the "retransmission": same op id, fresh ReqID
	w.until(func() bool { return len(acks) == 2 })

	if !acks[0].OK || !acks[1].OK {
		t.Fatalf("acks = %+v", acks)
	}
	if acks[0].ID != acks[1].ID {
		t.Fatalf("replayed ack names a different process: %v vs %v", acks[0].ID, acks[1].ID)
	}
	// Exactly one dup-job forked on vax2.
	count := 0
	for _, p := range w.kerns["vax2"].ProcessesOf("felipe") {
		if p.Name == "dup-job" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("dup-job executed %d times, want 1", count)
	}
	if got := reg.Counter("lpm.dedup.replays").Value(); got != 1 {
		t.Fatalf("lpm.dedup.replays = %d, want 1", got)
	}
	// The warm create executed under its own op id; count only this
	// operation's records. The receiver scopes the key to the sender's
	// incarnation (its dispatcher pid).
	opKey := fmt.Sprintf("op=%s", wire.OpKey{Origin: "vax1", Inc: l.incarnation(), Seq: 777})
	countOp := func(k journal.Kind) int {
		n := 0
		for _, r := range j.Select(journal.Filter{Kinds: []journal.Kind{k}}) {
			if strings.Contains(r.Detail, opKey) {
				n++
			}
		}
		return n
	}
	if n := countOp(journal.LPMOpExec); n != 1 {
		t.Fatalf("journaled executions = %d, want 1", n)
	}
	if n := countOp(journal.LPMOpReplay); n != 1 {
		t.Fatalf("journaled replays = %d, want 1", n)
	}
}

// TestReadOnlyRequestsBypassDedup: idempotent requests carry op ids but
// may re-execute freely — no cache entries, no replay records.
func TestReadOnlyRequestsBypassDedup(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1", "vax2"})
	j := installJournal(w)
	reg := installMetrics(w)
	u := w.user("felipe", "vax1", "vax2")
	l := w.attach("vax1", u)
	id := w.create(l, "vax2", "job", proc.GPID{})
	w.run(time.Second)

	for i := 0; i < 2; i++ {
		done := false
		l.StatsOf(id, func(_ proc.Info, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		w.until(func() bool { return done })
	}
	if n := countKind(j, journal.LPMOpReplay); n != 0 {
		t.Fatalf("read-only request replayed from cache %d times", n)
	}
	if got := reg.Counter("lpm.dedup.replays").Value(); got != 0 {
		t.Fatalf("lpm.dedup.replays = %d, want 0", got)
	}
}

// TestRetryRedialsAfterHeal: a control RPC issued into a partition
// fails its first attempt, backs off, and — once the partition heals —
// redials the sibling via its pmd and succeeds. The user-visible call
// never errors.
func TestRetryRedialsAfterHeal(t *testing.T) {
	cfg := Config{RequestTimeout: 300 * time.Millisecond}
	cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Second}
	w := newWorld(t, cfg, []string{"a", "b"})
	j := installJournal(w)
	reg := installMetrics(w)
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	id := w.create(la, "b", "job", proc.GPID{})
	w.run(time.Second)

	if err := w.net.Partition([]string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	var resp wire.ControlResp
	var gotErr error
	done := false
	la.Control(id, wire.OpStop, 0, func(r wire.ControlResp, err error) { resp, gotErr, done = r, err, true })
	// First attempt times out at 300ms; the retry waits out its 2s
	// backoff. Heal inside that window.
	w.run(time.Second)
	if done {
		t.Fatalf("request settled while partitioned: %v %+v", gotErr, resp)
	}
	w.net.Heal()
	w.until(func() bool { return done })

	if gotErr != nil || !resp.OK {
		t.Fatalf("retried control failed: %v %+v", gotErr, resp)
	}
	if resp.State != proc.Stopped {
		t.Fatalf("state = %v", resp.State)
	}
	if reg.Counter("lpm.request.retries").Value() == 0 {
		t.Fatal("no retries recorded")
	}
	if reg.Counter("lpm.request.redials").Value() == 0 {
		t.Fatal("no redials recorded")
	}
	if countKind(j, journal.LPMRetry) == 0 || countKind(j, journal.LPMRedial) == 0 {
		t.Fatal("retry/redial not journaled")
	}
}

// TestRetryGivesUpAfterMaxAttempts: a partition that never heals
// exhausts the attempt budget and surfaces a retryable error to the
// caller instead of spinning forever.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	cfg := Config{RequestTimeout: 300 * time.Millisecond}
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 500 * time.Millisecond}
	w := newWorld(t, cfg, []string{"a", "b"})
	reg := installMetrics(w)
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	id := w.create(la, "b", "job", proc.GPID{})
	w.run(time.Second)

	if err := w.net.Partition([]string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	done := false
	la.Control(id, wire.OpStop, 0, func(_ wire.ControlResp, err error) { gotErr, done = err, true })
	w.until(func() bool { return done })

	if !errors.Is(gotErr, ErrTimeout) && !errors.Is(gotErr, ErrNoSibling) {
		t.Fatalf("err = %v", gotErr)
	}
	if got := reg.Counter("lpm.request.retries").Value(); got != 1 {
		t.Fatalf("retries = %d, want exactly MaxAttempts-1 = 1", got)
	}
}

// TestRetryDisabled: MaxAttempts < 0 turns the engine off — one
// attempt, no retries, the old fail-fast behavior.
func TestRetryDisabled(t *testing.T) {
	cfg := Config{RequestTimeout: 300 * time.Millisecond}
	cfg.Retry = RetryPolicy{MaxAttempts: -1}
	w := newWorld(t, cfg, []string{"a", "b"})
	reg := installMetrics(w)
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	id := w.create(la, "b", "job", proc.GPID{})
	w.run(time.Second)

	if err := w.net.Partition([]string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	done := false
	la.Control(id, wire.OpStop, 0, func(_ wire.ControlResp, err error) { done = err != nil })
	w.until(func() bool { return done })
	if got := reg.Counter("lpm.request.retries").Value(); got != 0 {
		t.Fatalf("retries = %d with retries disabled", got)
	}
}

// TestFirstTimeoutKeepsSharedCircuit: one timed-out attempt must not
// tear down a circuit that other pending requests share — a first
// timeout may be nothing worse than a lost reply. The retry engine
// closes the circuit only once repeated timeouts implicate the
// transport; here the partition detector, not the retry path, is what
// eventually severs it.
func TestFirstTimeoutKeepsSharedCircuit(t *testing.T) {
	cfg := Config{RequestTimeout: 300 * time.Millisecond}
	cfg.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 5 * time.Second}
	w := newWorld(t, cfg, []string{"a", "b"})
	u := w.user("felipe", "a", "b")
	la := w.attach("a", u)
	id := w.create(la, "b", "job", proc.GPID{})
	w.run(time.Second)

	sb := la.peers["b"].sb
	if sb == nil || !sb.conn.Open() {
		t.Fatal("no warm circuit")
	}
	if err := w.net.Partition([]string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	done := false
	la.Control(id, wire.OpStop, 0, func(_ wire.ControlResp, err error) { gotErr, done = err, true })
	// The first attempt times out at 300ms — before the partition
	// detector's BreakDetect (1s) closes the circuit. The old policy
	// closed the shared circuit right here, failing every other request
	// riding it.
	w.run(600 * time.Millisecond)
	if done {
		t.Fatalf("request settled before any retry: %v", gotErr)
	}
	if !sb.conn.Open() {
		t.Fatal("first timeout tore down the shared sibling circuit")
	}
	w.net.Heal()
	w.until(func() bool { return done })
	if gotErr != nil {
		t.Fatalf("retried control failed: %v", gotErr)
	}
}

// TestInflightMarkersExpireWithWindow: an execution path that never
// replies leaks its in-flight marker only until the origin's retry
// loop has certainly given up; inside that window the marker keeps
// swallowing duplicates.
func TestInflightMarkersExpireWithWindow(t *testing.T) {
	cfg := Config{RequestTimeout: 500 * time.Millisecond, FloodTimeout: 500 * time.Millisecond}
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, Cap: time.Second}
	w := newWorld(t, cfg, []string{"vax1"})
	u := w.user("felipe", "vax1")
	l := w.attach("vax1", u)
	w.run(time.Second)

	now := w.sched.Now().Duration()
	key := wire.OpKey{Origin: "vax9", Inc: 1, Seq: 1}
	l.replies.Start(key, now)

	window := l.cfg.opWindow()
	// At the window edge a retransmit can still arrive.
	if _, _, running := l.replies.Lookup(key, now+window); !running {
		t.Fatal("marker evicted while a retransmit could still arrive")
	}
	if _, _, running := l.replies.Lookup(key, now+window+1); running {
		t.Fatal("orphaned in-flight marker survived its retransmit window")
	}
}

// TestBackoffSchedule: deterministic capped exponential growth.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 200 * time.Millisecond, Cap: time.Second}.withDefaults()
	want := []struct {
		attempt int
		d       time.Duration
	}{
		{2, 200 * time.Millisecond}, // first retry
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second}, // capped
		{9, time.Second},
	}
	for _, c := range want {
		if got := p.backoff(c.attempt); got != c.d {
			t.Fatalf("backoff(%d) = %v, want %v", c.attempt, got, c.d)
		}
	}
}

// TestRecordZeroAllocs pins the recorder's Record, reached the way the
// LPM reaches it, on the facts that fire per remote operation — the applied control and the
// at-most-once execution marker — at zero allocations with the registry
// and the journal both wired; one kind with a paired counter rides
// along to hold the handle path to the same.
func TestRecordZeroAllocs(t *testing.T) {
	w := newWorld(t, Config{}, []string{"vax1"})
	reg := installMetrics(w)
	j := installJournal(w)
	j.SetCapacity(64)
	l := w.attach("vax1", w.user("felipe", "vax1"))
	ctx := trace.Context{Trace: 7, Span: 9}
	stamp := wire.Stamp{Origin: "vax2", At: 1500 * time.Millisecond, Seq: 7}
	fire := func() {
		l.obs.Record(journal.LPMControl, l.Host(), ctx, journal.Control(wire.OpStop.String(), 12345, true))
		l.obs.Record(journal.LPMOpExec, l.Host(), ctx, journal.Op(l.user.Name, "vax2", 30, 7, wire.MsgControl.String()))
		l.obs.Record(journal.LPMOpReplay, l.Host(), ctx, journal.Op(l.user.Name, "vax2", 30, 7, wire.MsgControlResp.String()))
		l.obs.Record(journal.LPMFloodApply, l.Host(), ctx, l.stampDetail(stamp))
	}
	for i := 0; i < 64; i++ {
		fire()
	}
	before := w.counter("lpm.dedup.replays")
	if allocs := testing.AllocsPerRun(200, fire); allocs != 0 {
		t.Fatalf("record allocates %v times per four facts, want 0", allocs)
	}
	if got := w.counter("lpm.dedup.replays") - before; got != 201 {
		t.Fatalf("lpm.dedup.replays moved by %d over 201 replays", got)
	}
	recs := j.Records()
	want := []string{
		"op=stop pid=12345 ok=true",
		"user=felipe op=vax2#30#7 type=Control",
		"user=felipe op=vax2#30#7 type=ControlResp",
		"user=felipe stamp=vax2@1.5s#7",
	}
	for i, r := range recs[len(recs)-4:] {
		if r.Detail != want[i] || r.Trace != 7 || r.Span != 9 {
			t.Errorf("record %v, want detail %q under [t=7 s=9]", r, want[i])
		}
	}
	// The kinds without a paired counter must not have registered one
	// under their empty counter name.
	if got := reg.Snapshot().Counter(""); got != 0 {
		t.Fatalf("the unpaired kinds counted %d under the empty name:\n%s", got, reg.Report())
	}
}
