package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ppm/internal/proc"
	"ppm/internal/ring"
)

// floodRef is FloodResult as it crossed the wire before its lists
// stayed in wire form: decoded into Go values, appended, re-encoded.
// The splice is held to it byte for byte.
type floodRef struct {
	OK, Dup                         bool
	Count                           int32
	Procs                           []proc.Info
	Partial, Hosts, Routes, Reports []string
}

func (m *floodRef) Fields(c *Coder) {
	c.Bool(&m.OK)
	c.Bool(&m.Dup)
	c.I32(&m.Count)
	c.Infos(&m.Procs)
	c.Strs(&m.Partial)
	c.Strs(&m.Hosts)
	c.Strs(&m.Routes)
	if c.decoding && c.d.remaining() > 0 || !c.decoding && len(m.Reports) > 0 {
		c.Strs(&m.Reports)
	}
}

// echoRef is BroadcastResp as it was decoded: every field materialized.
type echoRef struct {
	Seq   uint64
	From  string
	Route []string
	Inner []byte
}

func (m *echoRef) Fields(c *Coder) {
	c.U64(&m.Seq)
	c.Str(&m.From)
	c.Strs(&m.Route)
	c.Bytes(&m.Inner)
}

// spliceRef is the reference merge: decode the echo and its result, and
// append the result's lists unless it is a duplicate's.
func spliceRef(agg *floodRef, echo []byte) error {
	var resp echoRef
	var res floodRef
	err := Decode(echo, &resp)
	if err == nil {
		err = Decode(resp.Inner, &res)
	}
	if err != nil || res.Dup {
		return err
	}
	agg.Count += res.Count
	agg.Procs = append(agg.Procs, res.Procs...)
	agg.Partial = append(agg.Partial, res.Partial...)
	agg.Hosts = append(agg.Hosts, res.Hosts...)
	agg.Routes = append(agg.Routes, res.Routes...)
	agg.Reports = append(agg.Reports, res.Reports...)
	return nil
}

// randName is a host, process or user name: often short ASCII, some
// non-ASCII or invalid UTF-8, now and then empty or of the longest
// length a string's u16 prefix can say.
func randName(rng *rand.Rand) string {
	switch rng.Intn(12) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("h", math.MaxUint16)
	case 2:
		return "hôte-élevé-☃"
	case 3:
		return string([]byte{0xff, 0xfe, byte(rng.Intn(256))})
	}
	return "h" + string(rune('a'+rng.Intn(26))) + string(rune('0'+rng.Intn(10)))
}

func randNames(rng *rand.Rand) []string {
	var out []string
	for i := rng.Intn(4); i > 0; i-- {
		out = append(out, randName(rng))
	}
	return out
}

func randFlood(rng *rand.Rand) floodRef {
	m := floodRef{OK: rng.Intn(4) > 0, Dup: rng.Intn(5) == 0, Count: int32(rng.Intn(9)) - 2}
	for i := rng.Intn(4); i > 0; i-- {
		m.Procs = append(m.Procs, proc.Info{
			ID:        proc.GPID{Host: randName(rng), PID: proc.PID(rng.Int31())},
			Parent:    proc.GPID{Host: randName(rng), PID: proc.PID(rng.Intn(40))},
			Name:      randName(rng),
			User:      randName(rng),
			State:     proc.State(rng.Intn(256)),
			Rusage:    proc.Rusage{CPUTime: time.Duration(rng.Int63()), Syscalls: -rng.Int63()},
			ExitCode:  rng.Intn(300) - 150,
			StartedAt: time.Duration(rng.Int63()),
			ExitedAt:  -1,
		})
	}
	m.Partial, m.Hosts, m.Routes = randNames(rng), randNames(rng), randNames(rng)
	for i := rng.Intn(4) - 1; i > 0; i-- { // a status flood's echoes carry reports
		m.Reports = append(m.Reports, randReport(rng))
	}
	return m
}

// randReport is an encoded status report: none, a few, or a few
// hundred arbitrary bytes.
func randReport(rng *rand.Rand) string {
	b := make([]byte, []int{0, 3, 120, 300, 700}[rng.Intn(5)])
	rng.Read(b)
	return string(b)
}

// randEcho is one child's answer: a result inside a reply head, perhaps
// cut short; or nothing (its call failed).
func randEcho(rng *rand.Rand) []byte {
	if rng.Intn(8) == 0 {
		return nil
	}
	res := randFlood(rng)
	echo := Encode(&echoRef{Seq: rng.Uint64(), From: randName(rng), Route: randNames(rng), Inner: Encode(&res)})
	if rng.Intn(6) == 0 {
		echo = echo[:rng.Intn(len(echo))]
	}
	return echo
}

// spliced runs both merges over the same echoes, as a hop does — the
// local fragment first, a failed or rejected child named in Partial —
// and returns the two echoes the hop would send. Each echo the splice
// reads is a copy, overwritten as soon as Splice returns, as a hop's
// arrival buffer is once its dispatch returns: the aggregate must keep
// none of it.
func spliced(t *testing.T, echoes [][]byte) (got, want []byte) {
	names := ring.NewNames()
	local := floodRef{OK: true, Count: 3, Procs: []proc.Info{{ID: proc.GPID{Host: "hop", PID: 7}, Name: "w"}}}
	agg := FloodResult{OK: true, Count: local.Count, Procs: ListOf(local.Procs...)}
	agg.Hosts.Add("hop")
	agg.Routes.Add("o/hop")
	ref := local
	ref.Hosts, ref.Routes = []string{"hop"}, []string{"o/hop"}
	for i, echo := range echoes {
		from := "c" + string(rune('a'+i%26))
		borrowed := bytes.Clone(echo)
		gotErr := echo == nil || agg.Splice(borrowed, names) != nil
		for j := range borrowed {
			borrowed[j] = 0xa5
		}
		wantErr := echo == nil || spliceRef(&ref, echo) != nil
		if gotErr != wantErr {
			t.Fatalf("echo %d (%x): splice rejected it %v, decode %v", i, echo, gotErr, wantErr)
		}
		if gotErr {
			agg.Partial.Add(from)
			ref.Partial = append(ref.Partial, from)
		}
	}
	head := BroadcastResp{Seq: 9, From: "hop", Route: ListOf("o", "hop")}
	return EncodeEcho(head, &agg, NewReplyCache(0)), Encode(&echoRef{Seq: 9, From: "hop", Route: []string{"o", "hop"}, Inner: Encode(&ref)})
}

// TestFloodSpliceMatchesDecode: over seeded random child echoes —
// duplicates', failed and truncated ones, empty lists, non-ASCII names,
// strings of the longest length, status reports short and long — the
// echo a hop builds by splicing wire-form lists is byte-identical to
// decoding every echo, appending and encoding, though each echo is
// overwritten once it is spliced.
func TestFloodSpliceMatchesDecode(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		echoes := make([][]byte, rng.Intn(6))
		for i := range echoes {
			echoes[i] = randEcho(rng)
		}
		if got, want := spliced(t, echoes); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: spliced echo differs from the decoded one\n got %x\nwant %x", seed, got, want)
		}
	}
}

// FuzzFloodSplice: for arbitrary child-echo bytes the splice rejects
// exactly what Decode rejects, and otherwise builds what decoding,
// appending and encoding builds; overwriting an echo once it is spliced
// changes nothing of the aggregate (spliced).
func FuzzFloodSplice(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		if echo := randEcho(rng); echo != nil && len(echo) < 4096 {
			f.Add(echo)
		}
	}
	f.Add(Encode(&echoRef{Inner: []byte{1, 0, 0, 0, 0, 1, 0xff, 0xff}}))
	f.Fuzz(func(t *testing.T, echo []byte) {
		if got, want := spliced(t, [][]byte{echo, echo}); !bytes.Equal(got, want) {
			t.Fatalf("spliced echo differs from the decoded one\n got %x\nwant %x", got, want)
		}
	})
}

// TestListsSaturateLikeTheirCount: a list holds at most the 65,535
// elements its count can say. Add, Splice and a counted list's walk all
// stop there — the splice of two lists whose sum is over is what
// encoding their concatenated values writes — and a decoded list ends
// where its count says.
func TestListsSaturateLikeTheirCount(t *testing.T) {
	const half = 33000
	a, b := make([]string, half), make([]string, half)
	pa, pb := make([]proc.Info, half), make([]proc.Info, half)
	for i := range a {
		a[i], b[i] = "a", "bb"
		pa[i].ID.PID, pb[i].ID.PID = 1, 2
	}
	hosts, procs := ListOf(a...), ListOf(pa...)
	hosts.Splice(ListOf(b...))
	procs.Splice(ListOf(pb...))
	hosts.Add("c")
	procs.Add(proc.Info{})
	if hosts.n != math.MaxUint16 || procs.n != math.MaxUint16 {
		t.Fatalf("spliced lists hold %d and %d elements", hosts.n, procs.n)
	}
	want := Encode(&floodRef{Hosts: append(a, b...), Procs: append(pa, pb...)})
	if got := Encode(&FloodResult{Hosts: hosts, Procs: procs}); !bytes.Equal(got, want) {
		t.Fatalf("saturated splices: %d bytes, encoding the values: %d", len(got), len(want))
	}

	kinds := make([]uint8, math.MaxUint16+1)
	for i := range kinds {
		kinds[i] = uint8(i)
	}
	m := HistoryReq{User: "u", Kinds: kinds, Since: time.Second, Limit: 7}
	var got HistoryReq
	if err := Decode(Encode(&m), &got); err != nil {
		t.Fatal(err)
	}
	m.Kinds = kinds[:math.MaxUint16]
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("65,536 kinds came back as %d, since %v, limit %d", len(got.Kinds), got.Since, got.Limit)
	}
}

// TestSplicedListsReadAsOne: a list spliced together from others, short
// and long, with elements added between them, reads, walks and encodes
// as the list of all its values.
func TestSplicedListsReadAsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var got List[string]
		var want []string
		for i := rng.Intn(6); i > 0; i-- {
			if rng.Intn(3) == 0 {
				v := randName(rng)
				got.Add(v)
				want = append(want, v)
			}
			part := make([]string, rng.Intn(4))
			for j := range part {
				part[j] = randReport(rng)
			}
			got.Splice(ListOf(part...))
			want = append(want, part...)
		}
		var walked []string
		for r := StringsOf(got); ; {
			b, ok := r.Next()
			if !ok {
				break
			}
			walked = append(walked, string(b))
		}
		values := got.Values(nil)
		if len(values) != len(want) || len(walked) != len(want) || len(want) > 0 && (!reflect.DeepEqual(values, want) || !reflect.DeepEqual(walked, want)) {
			t.Fatalf("round %d: spliced list reads %d values and walks %d, want %d", round, len(values), len(walked), len(want))
		}
		if enc, ref := Encode(&FloodResult{Reports: got}), Encode(&floodRef{Reports: want}); !bytes.Equal(enc, ref) {
			t.Fatalf("round %d: spliced list encodes to %d bytes, its values to %d", round, len(enc), len(ref))
		}
	}
}

// TestListResetDropsWhatItSpliced: a list keeps nothing of a list it
// spliced, so that one reads as before after the list is reset and
// refilled; a reset list writes its next elements into the buffer it
// wrote, allocating nothing.
func TestListResetDropsWhatItSpliced(t *testing.T) {
	reports := []string{strings.Repeat("r", 80), strings.Repeat("s", 80)}
	other := ListOf(reports...)
	var l List[string]
	l.Splice(other)
	l.Splice(ListOf(reports...))
	l.Reset()
	l.Add("vax1")
	if got := other.Values(nil); !reflect.DeepEqual(got, reports) {
		t.Fatalf("a reset list wrote into a list it had spliced: %q", got)
	}
	if !reflect.DeepEqual(l.Values(nil), []string{"vax1"}) {
		t.Fatalf("reset list reads %q", l.Values(nil))
	}

	var own List[string]
	refill := func() {
		own.Reset()
		own.Add("vax1")
		own.Add("vax2")
	}
	refill()
	if n := testing.AllocsPerRun(100, refill); n != 0 {
		t.Errorf("refilling a reset list: %.1f allocs, want its own buffer reused", n)
	}
	if got := own.Values(nil); !reflect.DeepEqual(got, []string{"vax1", "vax2"}) {
		t.Fatalf("refilled list reads %q", got)
	}
}
