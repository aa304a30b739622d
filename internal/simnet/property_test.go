package simnet

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ppm/internal/sim"
)

// Property tests over randomly generated topologies.

// buildRandom creates n hosts and attaches them to segments per the
// spec bytes; returns the network. Segment k gets the hosts whose spec
// byte modulo nSegs equals k, plus host 0 on every segment to keep a
// gateway candidate around (connectivity is still not guaranteed).
func buildRandom(t testing.TB, spec []byte, nSegs int) (*Network, []string) {
	t.Helper()
	s := sim.NewScheduler(1)
	n := New(s, Options{})
	var hosts []string
	for i := range spec {
		h := fmt.Sprintf("h%d", i)
		hosts = append(hosts, h)
		if err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < nSegs; k++ {
		var members []string
		for i, b := range spec {
			if int(b)%nSegs == k {
				members = append(members, hosts[i])
			}
		}
		if len(members) > 0 {
			if err := n.AddSegment(fmt.Sprintf("s%d", k), members...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n, hosts
}

func TestPropertyHopsSymmetric(t *testing.T) {
	f := func(spec []byte) bool {
		if len(spec) == 0 || len(spec) > 12 {
			return true
		}
		n, hosts := buildRandom(t, spec, 3)
		for _, a := range hosts {
			for _, b := range hosts {
				ha, oka := n.Hops(a, b)
				hb, okb := n.Hops(b, a)
				if oka != okb || (oka && ha != hb) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHopsTriangleInequality(t *testing.T) {
	f := func(spec []byte) bool {
		if len(spec) == 0 || len(spec) > 10 {
			return true
		}
		n, hosts := buildRandom(t, spec, 3)
		for _, a := range hosts {
			for _, b := range hosts {
				for _, c := range hosts {
					ab, ok1 := n.Hops(a, b)
					bc, ok2 := n.Hops(b, c)
					ac, ok3 := n.Hops(a, c)
					if ok1 && ok2 {
						// A path a->b->c exists, so a->c must exist and be
						// no longer than the relay.
						if !ok3 || ac > ab+bc {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHopsZeroIFFSelf(t *testing.T) {
	f := func(spec []byte) bool {
		if len(spec) == 0 || len(spec) > 10 {
			return true
		}
		n, hosts := buildRandom(t, spec, 2)
		for _, a := range hosts {
			for _, b := range hosts {
				h, ok := n.Hops(a, b)
				if a == b {
					if !ok || h != 0 {
						return false
					}
				} else if ok && h == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReachabilityRespectsPartitionGroups(t *testing.T) {
	f := func(spec []byte, cut []bool) bool {
		if len(spec) < 2 || len(spec) > 10 {
			return true
		}
		n, hosts := buildRandom(t, spec, 1) // one shared segment: all connected
		var g1, g2 []string
		for i, h := range hosts {
			if i < len(cut) && cut[i] {
				g1 = append(g1, h)
			} else {
				g2 = append(g2, h)
			}
		}
		if err := n.Partition(g1, g2); err != nil {
			return false
		}
		inG1 := make(map[string]bool, len(g1))
		for _, h := range g1 {
			inG1[h] = true
		}
		for _, a := range hosts {
			for _, b := range hosts {
				want := inG1[a] == inG1[b]
				if n.Reachable(a, b) != want {
					return false
				}
			}
		}
		n.Heal()
		for _, a := range hosts {
			for _, b := range hosts {
				if !n.Reachable(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// referencePath is the per-call BFS Path ran before it walked the
// parents routesFrom records, kept as the reference the shared
// BFS must reproduce path for path.
func referencePath(n *Network, a, b string) ([]string, bool) {
	if _, ok := n.hosts[a]; !ok {
		return nil, false
	}
	if a == b {
		return []string{a}, true
	}
	prev := map[string]string{a: a}
	frontier := []string{a}
	for len(frontier) > 0 {
		var next []string
		for _, h := range frontier {
			for _, seg := range n.hosts[h].segments {
				for _, peer := range n.segments[seg] {
					if _, seen := prev[peer]; seen {
						continue
					}
					prev[peer] = h
					if peer == b {
						var rev []string
						for cur := b; cur != a; cur = prev[cur] {
							rev = append(rev, cur)
						}
						rev = append(rev, a)
						slices.Reverse(rev)
						return rev, true
					}
					next = append(next, peer)
				}
			}
		}
		frontier = next
	}
	return nil, false
}

// TestPropertyPathMatchesReference: on random multi-homed topologies —
// host i joins segment k when bit k of spec[i] is set, so gateways and
// equal-length alternatives abound — Path returns exactly the path the
// per-call BFS did, ties broken the same way.
func TestPropertyPathMatchesReference(t *testing.T) {
	f := func(spec []byte) bool {
		if len(spec) == 0 || len(spec) > 12 {
			return true
		}
		n := New(sim.NewScheduler(1), Options{})
		var hosts []string
		for i := range spec {
			hosts = append(hosts, fmt.Sprintf("h%d", i))
			if err := n.AddHost(hosts[i]); err != nil {
				t.Fatal(err)
			}
		}
		for k := 7; k >= 0; k-- {
			for i, b := range spec {
				if b&(1<<k) != 0 {
					if err := n.AddSegment(fmt.Sprintf("s%d", k), hosts[(i+k)%len(hosts)]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		names := append(slices.Clone(hosts), "nowhere")
		for _, a := range names {
			for _, b := range names {
				got, ok := n.Path(a, b)
				want, wantOK := referencePath(n, a, b)
				if ok != wantOK || !slices.Equal(got, want) {
					t.Logf("Path(%s, %s) = %v %v, reference %v %v", a, b, got, ok, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
