package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"peel/internal/core"
	"peel/internal/service"
	"peel/internal/steiner"
	"peel/internal/topology"
)

// ctl-read: an in-process service.Service on FatTree(8). Each client
// goroutine owns its groups and runs a closed loop with a fixed operation
// budget per round: GetTree on a Zipf-popular group, except that a small
// share of operations is a Join or Leave on a Zipf-popular group followed
// at once by a GetTree of that group (the client fetching the tree its
// change produced). No links fail, so only those writes make the cache
// miss; HTTP and wire are not involved.
//
// Operation classes: get = Service.GetTree, write = Service.Join/Leave,
// push = from the start of a write to the end of the GetTree that returns
// the tree spanning the new membership.

const (
	// The repository's load generator's defaults (loadgen.Config): 256
	// groups, split evenly between the clients, a budget of 100,000
	// operations a round, and Zipf(1.3) group popularity.
	readGroups      = 256
	readOpsPerRound = 100_000
	readZipfS       = 1.3
	// readWriteShare: about 1% of operations are writes.
	readWriteShare = 0.01
	// The service cache keeps one entry per superseded membership until
	// a shard reaches its cap, and from then on every miss evicts.
	// readCacheCap is an eighth of the default 4096 entries a shard (16
	// shards): at the default, a miss's eviction scan walks 4096 entries
	// spread over a 280 MB heap, and the round time swung with the load
	// on the shared host, up to 1.7x between runs minutes apart (see
	// README.md). At 512 the scan still runs on every miss and still
	// costs several times the tree build. readWarmRounds unmeasured
	// rounds, about 16,000 writes against 8,192 entries, fill every
	// shard, so the readRounds measured rounds see the cache a
	// long-running service has; the fixed budget keeps the heap and RSS
	// figures independent of the host's speed.
	readCacheCap   = 512
	readWarmRounds = 16
	readRounds     = 150
)

// readClient is one client goroutine's state, carried across rounds.
type readClient struct {
	tally
	idx    int
	groups []*group
	rng    *rand.Rand
	zipf   *rand.Zipf
	budget int // operations a round
	// verified remembers, per group, the tree last checked and the
	// membership version it was checked against: a cache hit returns the
	// same tree, so it needs no second walk.
	verified []verifiedTree
	nextOp   uint64
}

type verifiedTree struct {
	tree    *steiner.Tree
	version uint64
}

// ctlReadSetup starts a service and creates and warms every client's
// groups.
func ctlReadSetup(c *runCfg, k *track) (*service.Service, []*readClient, error) {
	ctx := context.Background()
	k.begin("topology.build", 0)
	g := topology.FatTree(ctlK)
	k.end()
	k.begin("service.new", 0)
	svc := service.New(g, service.Options{CacheCap: readCacheCap})
	k.end()
	var clients []*readClient
	n := ctlClients()
	for ci := 0; ci < n; ci++ {
		rng := rand.New(rand.NewSource(mix(c.seed, ci)))
		groups := readGroups / n
		rc := &readClient{idx: ci, rng: rng, budget: readOpsPerRound / n,
			groups: newGroups(g, rng, fmt.Sprintf("c%dg", ci), groups, ctlGroupSize, ctlGroupSize, false),
			zipf:   rand.NewZipf(rng, readZipfS, 1, uint64(groups-1))}
		rc.verified = make([]verifiedTree, len(rc.groups))
		for _, grp := range rc.groups {
			k.begin("service.create", 0)
			_, err := svc.CreateGroup(ctx, grp.id, grp.createMembers())
			k.end()
			if err != nil {
				svc.Close()
				return nil, nil, fmt.Errorf("create %s: %w", grp.id, err)
			}
			k.begin("service.get", 0)
			_, err = svc.GetTree(ctx, grp.id)
			k.end()
			if err != nil {
				svc.Close()
				return nil, nil, fmt.Errorf("warm %s: %w", grp.id, err)
			}
		}
		clients = append(clients, rc)
	}
	return svc, clients, nil
}

// getTree runs one timed GetTree and checks the answer.
func (rc *readClient) getTree(svc *service.Service, g *topology.Graph, k *track, gi int, id uint64) (time.Duration, bool) {
	grp := rc.groups[gi]
	k.begin("service.get", id)
	t0 := time.Now()
	ti, err := svc.GetTree(context.Background(), grp.id)
	d := time.Since(t0)
	k.end()
	rc.get.add(d)
	rc.gets++
	rc.ops++
	if err != nil {
		rc.failures = append(rc.failures, fmt.Sprintf("GetTree %s: %v", grp.id, err))
		return d, false
	}
	if ti.Cached {
		rc.hits++
		rc.hit.add(d)
	} else {
		rc.miss.add(d)
	}
	v := &rc.verified[gi]
	if v.tree == ti.Tree && v.version == grp.version {
		return d, true
	}
	k.begin("check.tree", id)
	defer k.end()
	cost, err := checkTree(g, grp.source, grp.members, treeEdges(ti.Tree), nil)
	switch {
	case err != nil:
		rc.problem("GetTree %s: %v", grp.id, err)
	case ti.Tree.Source != grp.source || ti.Source != grp.source:
		rc.problem("GetTree %s: rooted at %d, source is %d", grp.id, ti.Tree.Source, grp.source)
	case cost != ti.Cost || cost != optimalCost(g, grp.members):
		rc.problem("GetTree %s: cost %d (reported %d), Lemma 2.1 optimum %d", grp.id, cost, ti.Cost, optimalCost(g, grp.members))
	default:
		*v = verifiedTree{ti.Tree, grp.version}
	}
	return d, true
}

// round runs the client's operation budget.
func (rc *readClient) round(svc *service.Service, g *topology.Graph, k *track) {
	ctx := context.Background()
	for n := 0; n < rc.budget; n++ {
		gi := int(rc.zipf.Uint64())
		rc.nextOp++
		id := uint64(rc.idx)<<56 | rc.nextOp
		// A write takes two operations of the budget (the write and its
		// GetTree), so the last slot is always a get.
		if rc.rng.Float64() >= readWriteShare || n == rc.budget-1 {
			rc.getTree(svc, g, k, gi, id)
			continue
		}
		grp := rc.groups[gi]
		host, join := grp.nextWrite(g, rc.rng)
		name, op := "service.leave", svc.Leave
		if join {
			name, op = "service.join", svc.Join
		}
		k.begin(name, id)
		t0 := time.Now()
		gi2, err := op(ctx, grp.id, host)
		d := time.Since(t0)
		k.end()
		rc.write.add(d)
		rc.ops++
		n++
		if err != nil {
			rc.failures = append(rc.failures, fmt.Sprintf("%s %s host %d: %v", name, grp.id, host, err))
			continue
		}
		grp.apply(host, join)
		if !slices.Equal(gi2.Members, grp.members) {
			rc.problem("%s %s: service membership %v, recorded %v", name, grp.id, gi2.Members, grp.members)
		}
		if _, ok := rc.getTree(svc, g, k, gi, id); ok {
			rc.push.add(time.Since(t0))
		}
	}
}

func runCtlRead(c *runCfg) (*report, error) {
	rep := &report{}
	var svc *service.Service
	var clients []*readClient
	teardown, err := c.setup(rep, func(k *track) (func() error, error) {
		var err error
		svc, clients, err = ctlReadSetup(c, k)
		return func() error { svc.Close(); return nil }, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	g := topology.FatTree(ctlK) // the benchmark's own copy, for the checks

	// round runs every client's budget once and folds their tallies into
	// rt; k is nil in untraced rounds.
	round := func(i int, k *track) (secs float64, rt tally) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, rc := range clients {
			wg.Add(1)
			go func(rc *readClient) {
				defer wg.Done()
				var ck *track
				if k != nil {
					ck = c.tr.open(fmt.Sprintf("client%d", rc.idx))
					defer ck.close()
				}
				ck.begin("bench.client", uint64(rc.idx))
				rc.round(svc, g, ck)
				ck.end()
			}(rc)
		}
		k.begin("idle.clients", uint64(i))
		wg.Wait()
		k.end()
		secs = time.Since(t0).Seconds()
		for _, rc := range clients {
			rc.fold(&rt, rep)
		}
		return secs, rt
	}
	for i := 0; i < readWarmRounds; i++ {
		round(i, nil)
	}
	var get, write, push opStats
	var traced tally // traced rounds
	log, err := c.measure(3, readRounds, func(i int, k *track) (float64, float64, error) {
		secs, rt := round(i, k)
		if k != nil {
			traced.add(&rt)
		} else {
			get.addRound(&rt.get)
			write.addRound(&rt.write)
			push.addRound(&rt.push)
		}
		return secs, float64(rt.ops), nil
	})
	if err != nil {
		return nil, err
	}
	if c.trace {
		rep.addN("service.get_hit_p50_us", "us", traced.hit.quantile(0.5)/1e3, traced.hit.n)
		rep.addN("service.get_hit_p99_us", "us", traced.hit.quantile(tailQ(traced.hit.n))/1e3, traced.hit.n)
		rep.addN("service.get_miss_p50_us", "us", traced.miss.quantile(0.5)/1e3, traced.miss.n)
		rep.addN("service.get_miss_p99_us", "us", traced.miss.quantile(tailQ(traced.miss.n))/1e3, traced.miss.n)
		rep.addN("service.hit_ratio", "ratio", float64(traced.hits)/float64(traced.gets), uint64(traced.gets))
		rep.add("service.gets", "count", float64(traced.gets))
		var alloc float64
		for _, b := range log.allocB[1] {
			alloc += b
		}
		rep.addN("service.alloc_b_per_op", "B/op", alloc/float64(traced.ops), uint64(traced.ops))
		k := c.tr.open("layers")
		addBuildLayer(rep, g, clients, k)
		k.close()
	}
	rep.addOps(c.trace, "get", &get)
	rep.addOps(c.trace, "write", &write)
	rep.addOps(c.trace, "push", &push)
	c.addRunMetrics(rep, log)
	return rep, nil
}

// addBuildLayer times core.BuildTree on every client group's current
// membership.
func addBuildLayer(rep *report, g *topology.Graph, clients []*readClient, k *track) {
	var xs []float64
	for _, rc := range clients {
		for _, grp := range rc.groups {
			k.begin("core.build", 0)
			t0 := time.Now()
			_, err := core.BuildTree(g, grp.source, grp.receivers())
			xs = append(xs, float64(time.Since(t0))/1e3)
			k.end()
			if err != nil {
				rep.problem("BuildTree %s: %v", grp.id, err)
			}
		}
	}
	rep.addN("core.build_us", "us", median(xs), uint64(len(xs)))
}
