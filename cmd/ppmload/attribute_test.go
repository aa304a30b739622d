package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A hand-assembled profile.proto in the shape runtime/pprof writes.

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = pbVarint(body, v)
	}
	return pbBytes(nil, field, body)
}

func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "runtime.mallocgc", "fmt.Sprintf", "ppm/internal/lpm.(*LPM).handleRequest",
		"ppm/internal/simnet.(*Network).deliver", "runtime.gcBgMarkWorker", "ppm/internal/calib.Model",
		"ppm/internal/kernel.(*Host).Signal", "main.controlOps", "ppm.(*Session).Stop"}
	var p []byte
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = pbBytes(p, 5, pbInt(pbInt(nil, 1, id), 2, id)) // function id = its name's index
	}
	line := func(fn uint64) []byte { return pbInt(nil, 1, fn) }
	loc := func(id uint64, fns ...uint64) {
		l := pbInt(nil, 1, id)
		for _, fn := range fns {
			l = pbBytes(l, 4, line(fn))
		}
		p = pbBytes(p, 4, l)
	}
	loc(1, 1)    // mallocgc
	loc(2, 2, 3) // Sprintf inlined into handleRequest
	loc(3, 4)    // simnet deliver
	loc(4, 5)    // gc worker
	loc(5, 6, 7) // calib.Model inlined into kernel Signal
	loc(6, 8)    // driver
	loc(7, 9)    // facade
	sample := func(value uint64, locs ...uint64) {
		s := pbPacked(1, locs...)
		s = append(s, pbPacked(2, 1, value)...)
		p = pbBytes(p, 2, s)
	}
	sample(30, 1, 2, 3, 7, 6) // malloc under Sprintf under lpm, called from simnet
	sample(20, 4)             // background GC: no repo frame
	sample(10, 5, 3, 7, 6)    // calib helper is charged to its caller, kernel
	sample(5, 6)              // the driver itself
	// One sample with unpacked repeated fields, as an old encoder writes them.
	p = pbBytes(p, 2, pbInt(pbInt(pbInt(nil, 1, 7), 1, 6), 2, 35))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestDecodeProfile(t *testing.T) {
	stacks, err := decodeProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 5 {
		t.Fatalf("decoded %d samples, want 5", len(stacks))
	}
	want := []string{"runtime.mallocgc", "fmt.Sprintf", "ppm/internal/lpm.(*LPM).handleRequest",
		"ppm/internal/simnet.(*Network).deliver", "ppm.(*Session).Stop", "main.controlOps"}
	if !reflect.DeepEqual(stacks[0].frames, want) || stacks[0].value != 30 {
		t.Errorf("sample 0 = %v / %d, want %v / 30", stacks[0].frames, stacks[0].value, want)
	}
	if got := stacks[4]; got.value != 35 || len(got.frames) != 2 || got.frames[0] != "ppm.(*Session).Stop" {
		t.Errorf("unpacked sample = %+v", got)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without an error")
	}
}

func TestCPUSharesChargeTheInnermostLayer(t *testing.T) {
	shares, total, err := cpuShares(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	want := map[string]float64{"lpm": 30, "gc": 20, "kernel": 10, "driver": 5, "ppm": 35}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if shares[l] != want[l] {
			t.Errorf("%s.cpu_pct = %v, want %v", l, shares[l], want[l])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ppm/internal/lpm.(*LPM).handleRequest.func1": "lpm",
		"ppm/internal/proc.GPID.String":               "kernel",
		"ppm/internal/sim.(*Scheduler).Step":          "sim",
		"ppm/internal/simnet.(*Network).deliver":      "simnet",
		"ppm.(*Cluster).await":                        "ppm",
		"ppm/cmd/ppmload.controlOps":                  "driver",
		"main.controlOps":                             "driver",
		"runtime.mallocgc":                            "",
		"fmt.Sprintf":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// An allocation under a layer the allocation table does not list
	// goes to the nearest caller it does list.
	frames := []string{"runtime.mallocgc", "ppm/internal/history.(*Store).Add", "ppm/internal/lpm.(*LPM).onEvent"}
	if got := charge(frames, setOf(allocLayers), ""); got != "lpm" {
		t.Errorf("charged to %q, want lpm", got)
	}
	if got := charge(frames, setOf(cpuLayers), "gc"); got != "history" {
		t.Errorf("charged to %q, want history", got)
	}
}

var allocSink [][]byte

//go:noinline
func allocSmall(n int) {
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, 16))
	}
}

//go:noinline
func allocBig(n int) {
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, 64<<10))
	}
}

// The runtime samples by bytes; the estimate must come out in objects.
// 200 000 small objects beside 500 big ones are 99.75 % of the objects
// and 9 % of the bytes (and of the raw sample counts).
func TestAllocEstimatesCountObjectsNotBytes(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	defer func() { runtime.MemProfileRate = old }()
	allocSink = make([][]byte, 0, 210_000)
	before := allocProfile()
	allocSmall(200_000)
	allocBig(500)
	after := allocProfile()
	allocSink = nil

	var small, big float64
	for _, e := range allocEstimates(before, after, memProfileRate) {
		for _, fn := range e.frames {
			switch {
			case strings.HasSuffix(fn, ".allocSmall"):
				small += e.objects
			case strings.HasSuffix(fn, ".allocBig"):
				big += e.objects
			}
		}
	}
	// About 200 samples stand for the small objects: +-25 % is 3.5 sigma.
	if small < 150_000 || small > 250_000 {
		t.Errorf("estimated %.0f small objects, allocated 200000", small)
	}
	if big < 450 || big > 550 {
		t.Errorf("estimated %.0f big objects, allocated 500", big)
	}
}
