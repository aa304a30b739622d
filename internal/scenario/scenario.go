// Package scenario is the one place non-test code builds a simulated
// installation over package ppm's public API: host specs, the cluster
// with its user and session, the coordinator-and-workers star the CLIs
// and experiments script, and the measurement every experiment takes —
// virtual time plus the wire traffic an operation caused. The
// experiments, ppmtrace (all three modes), ppmrun and ppmsh all build
// through it; ppmload builds its workloads' installations itself, and
// the examples call the public API directly, as a library user would.
package scenario

import (
	"fmt"
	"time"

	"ppm"
	"ppm/internal/metrics"
)

// Hosts returns one default (VAX 11/780) host spec per name.
func Hosts(names ...string) []ppm.HostSpec {
	specs := make([]ppm.HostSpec, len(names))
	for i, n := range names {
		specs[i] = ppm.HostSpec{Name: n}
	}
	return specs
}

// Numbered returns n host names: pattern formatted with first,
// first+1, ... ("h%02d" from 1 gives h01, h02, ...).
func Numbered(pattern string, first, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(pattern, first+i)
	}
	return names
}

// New builds the installation cfg describes and registers user on it.
// No LPM exists yet: callers that time the first Attach themselves, or
// load the hosts before anyone attaches, start here.
func New(cfg ppm.ClusterConfig, user string) (*ppm.Cluster, error) {
	c, err := ppm.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.AddUser(user)
	return c, nil
}

// Attach is New plus the user's session on home.
func Attach(cfg ppm.ClusterConfig, user, home string) (*ppm.Cluster, *ppm.Session, error) {
	c, err := New(cfg, user)
	if err != nil {
		return nil, nil, err
	}
	sess, err := c.Attach(user, home)
	if err != nil {
		return nil, nil, err
	}
	return c, sess, nil
}

// Workers runs one process on every host of hosts but the session's
// home, in order, each named name(host) and the logical child of
// parent (the zero GPID makes each a child of its LPM). Every remote
// creation opens the sibling circuit to its host, so the result is a
// star of circuits around the home LPM.
func Workers(sess *ppm.Session, hosts []string, parent ppm.GPID, name func(host string) string) ([]ppm.GPID, error) {
	workers := make([]ppm.GPID, 0, len(hosts))
	for _, h := range hosts {
		if h == sess.Home() {
			continue
		}
		w, err := sess.RunChild(h, name(h), parent)
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// Named gives every worker the same name.
func Named(name string) func(host string) string {
	return func(string) string { return name }
}

// Star runs a coordinator on the session's home host and Workers under
// it: the computation ppmtrace's top and prof modes and the 8-host
// allocation budgets script.
func Star(sess *ppm.Session, hosts []string, coordinator string, name func(host string) string) ([]ppm.GPID, error) {
	root, err := sess.Run(sess.Home(), coordinator)
	if err != nil {
		return nil, err
	}
	return Workers(sess, hosts, root, name)
}

// Tree runs a 3-ary genealogy over hosts: the process on hosts[n] is
// the child of the one on hosts[(n-1)/3], created by a session attached
// at that parent's host, so the sibling circuits form the same tree.
// Each cross pair of positions then opens one more circuit — a session
// at the first asks after the process at the second — and closes a
// cycle: the sparse, on-demand graph of the paper's §4. It returns the
// session on hosts[0] and the processes by position.
func Tree(c *ppm.Cluster, user string, hosts []string, cross [][2]int) (*ppm.Session, []ppm.GPID, error) {
	sessions := make([]*ppm.Session, len(hosts))
	at := func(pos int) (*ppm.Session, error) {
		if sessions[pos] == nil {
			s, err := c.Attach(user, hosts[pos])
			if err != nil {
				return nil, err
			}
			sessions[pos] = s
		}
		return sessions[pos], nil
	}
	procs := make([]ppm.GPID, len(hosts))
	for pos, h := range hosts {
		parent, under := 0, ppm.GPID{}
		if pos > 0 {
			parent = (pos - 1) / 3
			under = procs[parent]
		}
		s, err := at(parent)
		if err != nil {
			return nil, nil, err
		}
		if procs[pos], err = s.RunChild(h, fmt.Sprintf("node%02d", pos), under); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range cross {
		s, err := at(e[0])
		if err != nil {
			return nil, nil, err
		}
		if _, err := s.Stats(procs[e[1]]); err != nil {
			return nil, nil, err
		}
	}
	return sessions[0], procs, nil
}

// Cost is what one measured operation consumed.
type Cost struct {
	Elapsed time.Duration // virtual time
	Msgs    uint64        // wire messages every layer encoded (the wire.msgs. family)
	Bytes   uint64        // bytes of those messages (the wire.bytes. family)

	before, after metrics.Snapshot
}

// MS is the elapsed virtual time in milliseconds, the paper's unit.
func (c Cost) MS() float64 { return float64(c.Elapsed) / float64(time.Millisecond) }

// Delta is how far the named counter moved during the operation.
func (c Cost) Delta(counter string) uint64 {
	return c.after.Counter(counter) - c.before.Counter(counter)
}

// Measure runs op and reports the virtual time it took and the wire
// traffic it put on the network. Session calls are synchronous — they
// drive the clock until the distributed operation completes — so the
// clock and counter deltas around op are the operation's own cost.
func Measure(c *ppm.Cluster, op func() error) (Cost, error) {
	cost := Cost{before: c.MetricsSnapshot()}
	start := c.Now()
	err := op()
	cost.Elapsed = c.Now().Sub(start)
	cost.after = c.MetricsSnapshot()
	cost.Msgs = cost.after.CounterSum("wire.msgs.") - cost.before.CounterSum("wire.msgs.")
	cost.Bytes = cost.after.CounterSum("wire.bytes.") - cost.before.CounterSum("wire.bytes.")
	return cost, err
}
