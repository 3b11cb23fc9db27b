package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"peel/internal/steiner"
	"peel/internal/topology"
)

// Control-plane helpers shared by ctl-read and ctl-write-push: the
// benchmark's own record of each group's membership, and the checks an
// answer must pass against that record and the fabric.

// ctlK is the fat-tree arity of both control-plane workloads' fabric.
const ctlK = 8

// ctlGroupSize is the host count of every group at creation, the
// repository load generator's default (loadgen.Config.GroupSize); writes
// keep a group between 2 and ctlMaxGroupSize hosts.
const (
	ctlGroupSize    = 8
	ctlMaxGroupSize = 2 * ctlGroupSize
)

// ctlClients is the client goroutine count: one per CPU, at most two.
func ctlClients() int {
	return min(2, runtime.NumCPU())
}

// tally is what one client goroutine gathered in a round. After the
// round the workload folds every client's tally into the round's, which
// then carries the round's samples.
type tally struct {
	get, write, push hist
	hit, miss        hist // in-process GetTree, split by TreeInfo.Cached
	ops, gets, hits  int64
	busy             time.Duration // summed latency of the HTTP operations
	overhead         []float64     // HTTP minus in-process GetTree, µs
	failures         []string      // failed operations
	problems         []string      // failed checks
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add merges o's samples and counts into t.
func (t *tally) add(o *tally) {
	for _, h := range [][2]*hist{{&t.get, &o.get}, {&t.write, &o.write}, {&t.push, &o.push},
		{&t.hit, &o.hit}, {&t.miss, &o.miss}} {
		h[0].merge(h[1])
	}
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.busy += o.busy
	t.overhead = append(t.overhead, o.overhead...)
}

// fold moves a client's tally into the round's and into rep's operation
// counts and verdicts, and clears it for the next round.
func (t *tally) fold(round *tally, rep *report) {
	round.add(t)
	rep.attempted += t.ops
	for _, f := range t.failures {
		rep.fail("%s", f)
	}
	for _, p := range t.problems {
		rep.problem("%s", p)
	}
	*t = tally{}
}

// group is one group the benchmark created, with its own record of the
// membership. members is sorted, holds the source, and is replaced, never
// modified, on a change, so a stored answer can keep the slice it must
// span. Exactly one goroutine owns a group.
type group struct {
	id      string
	source  topology.NodeID
	members []topology.NodeID
	version uint64
}

// newGroups draws n groups of minSize..maxSize distinct hosts; the first
// drawn host is the source. With multiPod, a group spans at least two
// pods, so its tree has switch-to-switch links to flap.
func newGroups(g *topology.Graph, rng *rand.Rand, prefix string, n, minSize, maxSize int, multiPod bool) []*group {
	hosts := g.Hosts()
	out := make([]*group, 0, n)
	for len(out) < n {
		size := minSize + rng.Intn(maxSize-minSize+1)
		pick := rng.Perm(len(hosts))[:size]
		grp := &group{id: fmt.Sprintf("%s%d", prefix, len(out)), source: hosts[pick[0]]}
		pods := map[int]bool{}
		for _, i := range pick {
			grp.members = append(grp.members, hosts[i])
			pods[g.PodOf(hosts[i])] = true
		}
		if multiPod && len(pods) < 2 {
			continue
		}
		slices.Sort(grp.members)
		out = append(out, grp)
	}
	return out
}

// createMembers is the member list a create request carries: the source
// first, as the service's convention requires.
func (grp *group) createMembers() []topology.NodeID {
	return append([]topology.NodeID{grp.source}, grp.receivers()...)
}

// nextWrite picks a membership change for grp the way the repository's
// load generator (internal/service/loadgen) does: a join or a leave with
// equal odds, a leave of a random member other than the source, and a
// join instead when the group is at its two-member floor. A join adds a
// random host that is not yet a member, so every write changes the
// membership. Unlike the load generator's, whose budget is a few thousand
// writes, the benchmark's runs make tens of thousands, so a group also
// leaves instead of growing past ctlMaxGroupSize: tree sizes, and with
// them the cost of a miss, then stay alike from seed to seed.
func (grp *group) nextWrite(g *topology.Graph, rng *rand.Rand) (host topology.NodeID, join bool) {
	hosts := g.Hosts()
	join = rng.Intn(2) == 0
	if len(grp.members) <= 2 {
		join = true
	} else if len(grp.members) >= ctlMaxGroupSize {
		join = false
	}
	if join {
		for {
			h := hosts[rng.Intn(len(hosts))]
			if _, in := slices.BinarySearch(grp.members, h); !in {
				return h, true
			}
		}
	}
	for {
		h := grp.members[rng.Intn(len(grp.members))]
		if h != grp.source {
			return h, false
		}
	}
}

// receivers is the membership without the source.
func (grp *group) receivers() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(grp.members))
	for _, m := range grp.members {
		if m != grp.source {
			out = append(out, m)
		}
	}
	return out
}

// apply records a completed join or leave.
func (grp *group) apply(host topology.NodeID, join bool) {
	next := make([]topology.NodeID, 0, len(grp.members)+1)
	for _, m := range grp.members {
		if m != host {
			next = append(next, m)
		}
	}
	if join {
		next = append(next, host)
		slices.Sort(next)
	}
	grp.members = next
	grp.version++
}

// checkTree verifies an answer: edges (parent, child) must form a tree
// rooted at source whose hosts are exactly members (sorted), every edge
// must be a live link of g, and failed (when non-nil) must report none of
// them failed. It returns the tree's cost (edge count).
func checkTree(g *topology.Graph, source topology.NodeID, members []topology.NodeID,
	edges [][2]topology.NodeID, failed func(topology.LinkID) bool) (int, error) {
	parent := make(map[topology.NodeID]topology.NodeID, len(edges))
	for _, e := range edges {
		p, c := e[0], e[1]
		if c == source {
			return 0, fmt.Errorf("edge %d->%d enters the source", p, c)
		}
		if _, dup := parent[c]; dup {
			return 0, fmt.Errorf("node %d has two parents", c)
		}
		parent[c] = p
		l := g.LinkBetween(p, c)
		if l < 0 {
			return 0, fmt.Errorf("edge %d->%d is not a live fabric link", p, c)
		}
		if failed != nil && failed(l) {
			return 0, fmt.Errorf("edge %d->%d uses failed link %d", p, c, l)
		}
	}
	// Every node must reach the source through its parents.
	for c := range parent {
		n, steps := c, 0
		for n != source {
			p, ok := parent[n]
			if !ok {
				return 0, fmt.Errorf("node %d does not reach the source", c)
			}
			n = p
			if steps++; steps > len(parent) {
				return 0, fmt.Errorf("cycle through node %d", c)
			}
		}
	}
	hosts := 1 // the source
	for c := range parent {
		if g.Node(c).Kind != topology.Host {
			continue
		}
		if _, in := slices.BinarySearch(members, c); !in {
			return 0, fmt.Errorf("tree reaches non-member host %d", c)
		}
		hosts++
	}
	if _, in := slices.BinarySearch(members, source); !in || hosts != len(members) {
		return 0, fmt.Errorf("tree spans %d member hosts, the group has %d", hosts, len(members))
	}
	return len(edges), nil
}

// treeEdges lists t's (parent, child) edges.
func treeEdges(t *steiner.Tree) [][2]topology.NodeID {
	edges := make([][2]topology.NodeID, 0, len(t.Members))
	for _, m := range t.Members[1:] {
		edges = append(edges, [2]topology.NodeID{t.Parent[m], m})
	}
	return edges
}

// optimalCost is Lemma 2.1's minimum tree cost on a fault-free k-ary
// fat-tree, in closed form from each member's ToR and pod: every
// receiver's host downlink, the source's uplink, one aggregation→ToR link
// per touched ToR other than the source's, the source ToR's uplink when
// any other ToR is touched, and, when other pods are touched, the source
// pod's aggregation→core link plus one core→aggregation link per other
// pod (a core reaches one aggregation switch in every pod).
func optimalCost(g *topology.Graph, members []topology.NodeID) int {
	tors := map[[2]int]bool{}
	pods := map[int]bool{}
	for _, m := range members {
		tors[[2]int{g.PodOf(m), g.ToRIndexOf(m)}] = true
		pods[g.PodOf(m)] = true
	}
	cost := len(members) - 1 + 1 + len(tors) - 1
	if len(tors) > 1 {
		cost++
	}
	if len(pods) > 1 {
		cost += len(pods)
	}
	return cost
}
