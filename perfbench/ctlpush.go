package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"peel/internal/service"
	"peel/internal/service/wire"
	"peel/internal/topology"
)

// ctl-write-push: a peeld daemon (service.NewDaemon with the wire push
// server attached through DaemonConfig.Aux) on loopback.
//
//   - HTTP clients, one goroutine and one connection each, run a closed
//     loop with pushThink of think time, mixing GetTree with Join and Leave
//     on groups that no subscriber watches.
//   - One wire client subscribes to other groups.
//   - An open-loop schedule flaps switch–switch links on the subscribed
//     groups' trees: each link fails, then heals half a period later,
//     before the next flap.
//
// Operation classes: get = GET /v1/groups/{id}/tree, write = POST
// join/leave, push = from the start of the call that fails a link to the
// wire subscriber's receipt of a tree carrying that generation.
//
// README.md gives the reason for each of the constants below.

const (
	// The repository's load generator's command-line defaults (peelsim
	// loadgen): 64 groups, split evenly between the HTTP clients, and
	// four subscribers of four groups each, here 16 groups on one wire
	// client.
	pushHTTPGroups = 64
	pushSubGroups  = 16
	// One flap per subscribed group a round, 12 ms apart; the link heals
	// half a period after it failed, the load generator's default
	// (FlapHeal = FlapEvery/2), which is after a failure's push at its
	// measured p99 (about 5.5 ms).
	pushFlapsPerRound = pushSubGroups
	pushFlapPeriod    = 12 * time.Millisecond
	// pushOpsPerRound per client, half GetTree and half Join/Leave: at
	// about 1.3 ms an operation (think time plus the HTTP call) the
	// clients' loop lasts as long as the round's flap schedule.
	pushOpsPerRound = 150
	// pushThink keeps a 2-CPU machine from starving the push pipeline;
	// time.Sleep overshoots it to about 1.06 ms on Linux.
	pushThink    = time.Millisecond
	pushDeadline = 500 * time.Millisecond
	// pushRounds is the run's fixed budget: every run makes the same
	// writes, so the cache, heap and RSS figures do not depend on the
	// host's speed.
	pushRounds = 80
)

// daemon is a running peeld with its wire server.
type daemon struct {
	svc    *service.Service
	wsrv   *wire.Server
	base   string
	wire   string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(k *track) (*daemon, error) {
	k.begin("service.daemon_start", 0)
	defer k.end()
	dm := &daemon{done: make(chan error, 1)}
	ready := make(chan string, 1)
	wireReady := make(chan string, 1)
	d, err := service.NewDaemon(service.DaemonConfig{
		Addr:    "127.0.0.1:0",
		K:       ctlK,
		OnReady: func(addr string) { ready <- addr },
		Aux: func(svc *service.Service) (func(), error) {
			srv := wire.NewServer(svc, wire.Options{})
			if err := srv.ListenAndServe("127.0.0.1:0", func(addr string) { wireReady <- addr }); err != nil {
				return nil, err
			}
			dm.wsrv = srv
			return srv.Close, nil
		},
	})
	if err != nil {
		return nil, err
	}
	dm.svc = d.Service()
	ctx, cancel := context.WithCancel(context.Background())
	dm.cancel = cancel
	go func() { dm.done <- d.Run(ctx) }()
	select {
	case addr := <-ready:
		dm.base = "http://" + addr
		dm.wire = <-wireReady
		return dm, nil
	case err := <-dm.done:
		cancel()
		return nil, fmt.Errorf("daemon: %v", err)
	}
}

// stop drains the daemon and waits for it to exit.
func (dm *daemon) stop() error {
	dm.cancel()
	return <-dm.done
}

// httpClient is one load-generating client: its own connection, its own
// groups.
type httpClient struct {
	tally   // hit, miss and overhead only in traced rounds
	idx     int
	hc      *http.Client
	base    string
	groups  []*group
	rng     *rand.Rand
	nextOp  uint64
	answers []httpTree // answers of this round, checked after it
}

// httpTree is one GetTree answer with the membership recorded when it
// was asked for.
type httpTree struct {
	grp     *group
	members []topology.NodeID
	resp    service.TreeResponse
}

// groupJSON is the part of the daemon's membership answer the checks read.
type groupJSON struct {
	Source  int32   `json:"source"`
	Members []int32 `json:"members"`
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// call issues one request and decodes a 2xx answer into out.
func call(c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return err
}

func ids(ns []topology.NodeID) []int32 {
	out := make([]int32, len(ns))
	for i, n := range ns {
		out[i] = int32(n)
	}
	return out
}

// op runs one timed operation: a GetTree or a membership write.
func (hc *httpClient) op(svc *service.Service, k *track) {
	hc.nextOp++
	id := uint64(hc.idx)<<56 | hc.nextOp
	grp := hc.groups[hc.rng.Intn(len(hc.groups))]
	hc.ops++
	if hc.rng.Intn(2) == 0 {
		var tr service.TreeResponse
		k.begin("http.get", id)
		t0 := time.Now()
		err := call(hc.hc, "GET", hc.base+"/v1/groups/"+grp.id+"/tree", nil, &tr)
		d := time.Since(t0)
		k.end()
		hc.get.add(d)
		hc.busy += d
		if err != nil {
			hc.failures = append(hc.failures, err.Error())
			return
		}
		hc.answers = append(hc.answers, httpTree{grp, grp.members, tr})
		if k != nil {
			// Back to back with the HTTP call: what the daemon's handler
			// costs on top of the service.
			k.begin("service.get", id)
			t1 := time.Now()
			ti, err := svc.GetTree(context.Background(), grp.id)
			d2 := time.Since(t1)
			k.end()
			if err == nil {
				hc.overhead = append(hc.overhead, float64(d-d2)/1e3)
				if ti.Cached {
					hc.hit.add(d2)
				} else {
					hc.miss.add(d2)
				}
			}
		}
		return
	}
	host, join := grp.nextWrite(g8, hc.rng)
	name, verb := "http.leave", "leave"
	if join {
		name, verb = "http.join", "join"
	}
	var gj groupJSON
	k.begin(name, id)
	t0 := time.Now()
	err := call(hc.hc, "POST", hc.base+"/v1/groups/"+grp.id+"/"+verb, map[string]int32{"host": int32(host)}, &gj)
	d := time.Since(t0)
	k.end()
	hc.write.add(d)
	hc.busy += d
	if err != nil {
		hc.failures = append(hc.failures, err.Error())
		return
	}
	grp.apply(host, join)
	if !slices.Equal(gj.Members, ids(grp.members)) || gj.Source != int32(grp.source) {
		hc.problem("%s %s: daemon membership %v from %d, recorded %v from %d", verb, grp.id, gj.Members, gj.Source, grp.members, grp.source)
	}
}

// checkAnswers checks the round's GetTree answers against the recorded
// memberships and the failure log, then drops them.
func (hc *httpClient) checkAnswers(log *genLog, rep *report) {
	for _, a := range hc.answers {
		failed, err := log.failedAt(a.resp.Gen)
		if err == nil {
			_, err = checkTree(g8, a.grp.source, a.members, edgesOf(a.resp), failed)
		}
		if err == nil && a.resp.Source != int32(a.grp.source) {
			err = fmt.Errorf("rooted at %d", a.resp.Source)
		}
		if err == nil && a.resp.Cost != len(a.resp.Edges) {
			err = fmt.Errorf("cost %d for %d edges", a.resp.Cost, len(a.resp.Edges))
		}
		if err != nil {
			rep.problem("GetTree %s at generation %d: %v", a.grp.id, a.resp.Gen, err)
		}
	}
	hc.answers = hc.answers[:0]
}

// g8 is the benchmark's own copy of the daemon's fabric, for the checks;
// read-only, so the goroutines share it.
var g8 = topology.FatTree(ctlK)

// genLog is the benchmark's record of which link was failed at each
// topology generation. Only the flapper changes the topology, one
// transition per generation.
type genLog struct {
	mu     sync.Mutex
	base   uint64
	failed []topology.LinkID // index gen-base-1; -1 when none
}

func (l *genLog) note(gen uint64, failed topology.LinkID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.base + uint64(len(l.failed)) + 1; gen != want {
		return fmt.Errorf("topology generation %d after a transition, expected %d", gen, want)
	}
	l.failed = append(l.failed, failed)
	return nil
}

// failedAt returns the failed-link test at generation gen.
func (l *genLog) failedAt(gen uint64) (func(topology.LinkID) bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen <= l.base {
		return nil, nil
	}
	i := gen - l.base - 1
	if i >= uint64(len(l.failed)) {
		return nil, fmt.Errorf("generation %d is beyond the benchmark's log", gen)
	}
	f := l.failed[i]
	return func(id topology.LinkID) bool { return id == f }, nil
}

// subscriber is the wire client and what it received.
type subscriber struct {
	c      *wire.Client
	groups map[string]*group
	done   chan struct{}

	mu      sync.Mutex
	current map[string]wire.TreeUpdate // last tree per group
	obs     []pushObs                  // this round's receipts
	errs    []string
}

type pushObs struct {
	u  wire.TreeUpdate
	at time.Time
}

func subscribe(addr string, groups []*group) (*subscriber, error) {
	c, err := wire.Dial(addr, wire.ClientOptions{})
	if err != nil {
		return nil, err
	}
	s := &subscriber{c: c, groups: map[string]*group{}, done: make(chan struct{}),
		current: map[string]wire.TreeUpdate{}}
	go s.recv()
	for _, grp := range groups {
		s.groups[grp.id] = grp
		if err := c.Subscribe(grp.id); err != nil {
			s.close()
			return nil, err
		}
	}
	// Setup ends with every group's initial tree in hand.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.current)
		s.mu.Unlock()
		if n == len(groups) {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("wire: %d of %d initial trees after 5s", n, len(groups))
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *subscriber) recv() {
	defer close(s.done)
	for u := range s.c.Updates() {
		at := time.Now()
		s.mu.Lock()
		if u.Err != nil {
			s.errs = append(s.errs, u.Err.Error())
		} else {
			s.obs = append(s.obs, pushObs{u, at})
			s.current[u.Group] = u
		}
		s.mu.Unlock()
	}
}

func (s *subscriber) close() {
	s.c.Close()
	<-s.done
}

// flap is one scheduled link failure.
type flap struct {
	grp   *group
	link  topology.LinkID
	gen   uint64
	start time.Time
	late  time.Duration
}

// flapper drives the open-loop failure schedule.
type flapper struct {
	rng    *rand.Rand
	groups []*group
	count  int
	log    *genLog
}

// sleepUntil waits for t inside an idle span.
func sleepUntil(k *track, t time.Time) {
	if d := time.Until(t); d > 0 {
		k.begin("idle.wait", 0)
		time.Sleep(d)
		k.end()
	}
}

// round runs one round's flaps and returns them.
func (fl *flapper) round(svc *service.Service, k *track) ([]flap, error) {
	start := time.Now()
	var out []flap
	for j := 0; j < pushFlapsPerRound; j++ {
		due := start.Add(time.Duration(j) * pushFlapPeriod)
		sleepUntil(k, due)
		late := time.Since(due)
		grp := fl.groups[fl.count%len(fl.groups)]
		fl.count++
		id := uint64(fl.count)
		// The link is drawn from the tree the service holds now, not from
		// the subscriber's last push: an earlier flap on a link this tree
		// shares may have replaced the tree with its push still in
		// flight, and a link off the current tree changes nothing, so no
		// push would follow. GetTree answers with a fresh tree, and only
		// the flapper changes the topology, so the tree stays current
		// until FailLink.
		k.begin("service.get", id)
		ti, err := svc.GetTree(context.Background(), grp.id)
		k.end()
		if err != nil {
			return nil, fmt.Errorf("flap %d: GetTree %s: %w", id, grp.id, err)
		}
		var cands []topology.LinkID
		for _, e := range treeEdges(ti.Tree) {
			if g8.Node(e[0]).Kind.IsSwitch() && g8.Node(e[1]).Kind.IsSwitch() {
				cands = append(cands, g8.LinkBetween(e[0], e[1]))
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("subscribed group %s's tree has no switch-switch link", grp.id)
		}
		link := cands[fl.rng.Intn(len(cands))]
		k.begin("service.fail_link", id)
		t0 := time.Now()
		changed := svc.FailLink(link)
		k.end()
		if !changed {
			return nil, fmt.Errorf("link %d was already failed", link)
		}
		f := flap{grp: grp, link: link, gen: svc.Gen(), start: t0, late: late}
		if err := fl.log.note(f.gen, link); err != nil {
			return nil, err
		}
		out = append(out, f)
		sleepUntil(k, due.Add(pushFlapPeriod/2))
		k.begin("service.restore_link", id)
		svc.RestoreLink(link)
		k.end()
		if err := fl.log.note(svc.Gen(), -1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func edgesOf(tr service.TreeResponse) [][2]topology.NodeID {
	out := make([][2]topology.NodeID, len(tr.Edges))
	for i, e := range tr.Edges {
		out[i] = [2]topology.NodeID{topology.NodeID(e[0]), topology.NodeID(e[1])}
	}
	return out
}

// pushSetup starts the daemon, creates every group over HTTP with one
// warming GetTree each, and subscribes the wire client.
func pushSetup(c *runCfg, k *track) (*daemon, []*httpClient, *subscriber, []*group, error) {
	dm, err := startDaemon(k)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fail := func(err error) (*daemon, []*httpClient, *subscriber, []*group, error) {
		dm.stop()
		return nil, nil, nil, nil, err
	}
	setupHC := newHTTPClient()
	defer setupHC.CloseIdleConnections()
	create := func(grp *group) error {
		k.begin("http.create", 0)
		err := call(setupHC, "POST", dm.base+"/v1/groups", map[string]any{"id": grp.id, "members": ids(grp.createMembers())}, nil)
		k.end()
		if err != nil {
			return err
		}
		k.begin("http.get", 0)
		defer k.end()
		return call(setupHC, "GET", dm.base+"/v1/groups/"+grp.id+"/tree", nil, nil)
	}
	var clients []*httpClient
	for ci := 0; ci < ctlClients(); ci++ {
		rng := rand.New(rand.NewSource(mix(c.seed, ci)))
		hc := &httpClient{idx: ci, hc: newHTTPClient(), base: dm.base, rng: rng,
			groups: newGroups(g8, rng, fmt.Sprintf("h%dg", ci), pushHTTPGroups/ctlClients(), ctlGroupSize, ctlGroupSize, false)}
		for _, grp := range hc.groups {
			if err := create(grp); err != nil {
				return fail(err)
			}
		}
		clients = append(clients, hc)
	}
	subGroups := newGroups(g8, rand.New(rand.NewSource(mix(c.seed, 100))), "sub", pushSubGroups, ctlGroupSize, ctlGroupSize, true)
	for _, grp := range subGroups {
		if err := create(grp); err != nil {
			return fail(err)
		}
	}
	k.begin("wire.subscribe", 0)
	sub, err := subscribe(dm.wire, subGroups)
	k.end()
	if err != nil {
		return fail(err)
	}
	return dm, clients, sub, subGroups, nil
}

func runCtlWritePush(c *runCfg) (*report, error) {
	rep := &report{}
	var dm *daemon
	var clients []*httpClient
	var sub *subscriber
	var subGroups []*group
	teardown, err := c.setup(rep, func(k *track) (func() error, error) {
		var err error
		dm, clients, sub, subGroups, err = pushSetup(c, k)
		return func() error {
			sub.close()
			for _, hc := range clients {
				hc.hc.CloseIdleConnections()
			}
			return dm.stop()
		}, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	log := &genLog{base: dm.svc.Gen()}
	fl := &flapper{rng: rand.New(rand.NewSource(mix(c.seed, 200))), groups: subGroups, log: log}
	var get, write, push opStats
	var late []float64
	var traced tally     // traced rounds
	var counted counters // summed over traced rounds
	var tracedRounds int
	rounds, err := c.measure(3, pushRounds, func(i int, k *track) (float64, float64, error) {
		before := readCounters(dm, sub)
		var wg sync.WaitGroup
		var flaps []flap
		var flapErr error
		for _, hc := range clients {
			wg.Add(1)
			go func(hc *httpClient) {
				defer wg.Done()
				var ck *track
				if k != nil {
					ck = c.tr.open(fmt.Sprintf("client%d", hc.idx))
					defer ck.close()
				}
				ck.begin("bench.client", uint64(hc.idx))
				defer ck.end()
				for n := 0; n < pushOpsPerRound; n++ {
					if n > 0 {
						ck.begin("idle.think", 0)
						time.Sleep(pushThink)
						ck.end()
					}
					hc.op(dm.svc, ck)
				}
			}(hc)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fk *track
			if k != nil {
				fk = c.tr.open("flapper")
				defer fk.close()
			}
			fk.begin("bench.flapper", 0)
			defer fk.end()
			flaps, flapErr = fl.round(dm.svc, fk)
		}()
		k.begin("idle.clients", uint64(i))
		wg.Wait()
		k.end()
		if flapErr != nil {
			return 0, 0, flapErr
		}

		// Wait for every flap's push, then check the round's answers.
		k.begin("check.push", uint64(i))
		defer k.end()
		var rt tally
		lat := waitPushes(sub, flaps)
		for j, f := range flaps {
			rep.attempted++
			if lat[j] < 0 {
				rep.fail("flap of link %d (generation %d) on %s: no push within %v", f.link, f.gen, f.grp.id, pushDeadline)
				continue
			}
			rt.push.add(lat[j])
			if k != nil {
				late = append(late, float64(f.late)/1e3)
			}
		}
		checkPushes(sub, log, rep)
		for _, hc := range clients {
			hc.checkAnswers(log, rep)
			hc.fold(&rt, rep)
		}
		if k == nil {
			get.addRound(&rt.get)
			write.addRound(&rt.write)
			push.addRound(&rt.push)
		} else {
			traced.add(&rt)
			tracedRounds++
			counted.add(readCounters(dm, sub), before)
		}
		// The round's seconds are the clients' busy time: their
		// operations' summed latency per client, without think time and
		// the flap schedule's waits.
		return rt.busy.Seconds() / float64(len(clients)), float64(rt.ops) + float64(len(flaps)), nil
	})
	if err != nil {
		return nil, err
	}
	k := c.tr.open("final")
	k.begin("check.final", 0)
	finalCheck(clients[0].hc, dm.base, sub, subGroups, rep)
	k.end()
	k.close()

	if c.trace {
		per := float64(tracedRounds)
		rep.add("wire.pushes", "count", float64(counted.pushes)/per)
		rep.add("wire.shed", "count", float64(counted.shed)/per)
		rep.add("wire.resyncs", "count", float64(counted.resyncs)/per)
		rep.add("wire.gaps", "count", float64(counted.gaps)/per)
		rep.add("service.repairs_patched", "count", float64(counted.patched)/per)
		rep.add("service.repairs_full_fallback", "count", float64(counted.fellBack)/per)
		rep.addN("http.get_overhead_us", "us", median(traced.overhead), uint64(len(traced.overhead)))
		rep.addN("gen.flap_late_p99_us", "us", percentile(late, tailQ(uint64(len(late)))), uint64(len(late)))
		rep.addN("service.get_hit_p50_us", "us", traced.hit.quantile(0.5)/1e3, traced.hit.n)
		rep.addN("service.get_hit_p99_us", "us", traced.hit.quantile(tailQ(traced.hit.n))/1e3, traced.hit.n)
		rep.addN("service.get_miss_p50_us", "us", traced.miss.quantile(0.5)/1e3, traced.miss.n)
		rep.addN("service.get_miss_p99_us", "us", traced.miss.quantile(tailQ(traced.miss.n))/1e3, traced.miss.n)
	}
	rep.addOps(c.trace, "get", &get)
	rep.addOps(c.trace, "write", &write)
	rep.addOps(c.trace, "push", &push)
	c.addRunMetrics(rep, rounds)
	return rep, nil
}

// counters are the wire and service counters the traced run reports.
type counters struct{ pushes, shed, resyncs, gaps, patched, fellBack int64 }

func readCounters(dm *daemon, sub *subscriber) counters {
	w, cs := dm.wsrv.Stats(), sub.c.Stats()
	patched, fellBack := dm.svc.RepairCounts()
	return counters{w.Pushes, w.Shed, w.Resyncs, cs.Gaps, patched, fellBack}
}

// add accumulates after minus before.
func (c *counters) add(after, before counters) {
	c.pushes += after.pushes - before.pushes
	c.shed += after.shed - before.shed
	c.resyncs += after.resyncs - before.resyncs
	c.gaps += after.gaps - before.gaps
	c.patched += after.patched - before.patched
	c.fellBack += after.fellBack - before.fellBack
}

// waitPushes matches each flap with the first tree for its group carrying
// the flap's generation or a later one, waiting up to pushDeadline after
// the flap for it. It returns each flap's latency, -1 for a miss, and
// leaves the round's receipts for checkPushes.
func waitPushes(sub *subscriber, flaps []flap) []time.Duration {
	lat := make([]time.Duration, len(flaps))
	for j := range lat {
		lat[j] = -1
	}
	for {
		pending := 0
		var last time.Time
		sub.mu.Lock()
		for j, f := range flaps {
			if lat[j] >= 0 {
				continue
			}
			for _, o := range sub.obs {
				if o.u.Group == f.grp.id && o.u.Gen >= f.gen && !o.at.Before(f.start) {
					if d := o.at.Sub(f.start); d <= pushDeadline {
						lat[j] = d
					}
					break
				}
			}
			if lat[j] < 0 {
				pending++
				last = f.start
			}
		}
		sub.mu.Unlock()
		if pending == 0 || time.Since(last) > pushDeadline {
			return lat
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// checkPushes checks every tree received this round: it spans its
// group's members and avoids the link failed at its generation.
func checkPushes(sub *subscriber, log *genLog, rep *report) {
	sub.mu.Lock()
	obs := sub.obs
	sub.obs = nil
	errs := sub.errs
	sub.errs = nil
	sub.mu.Unlock()
	for _, e := range errs {
		rep.problem("wire error: %s", e)
	}
	for _, o := range obs {
		grp := sub.groups[o.u.Group]
		failed, err := log.failedAt(o.u.Gen)
		if err == nil {
			_, err = checkTree(g8, grp.source, grp.members, o.u.Edges, failed)
		}
		if err == nil && o.u.Source != grp.source {
			err = fmt.Errorf("rooted at %d", o.u.Source)
		}
		if err != nil {
			rep.problem("pushed tree for %s at generation %d: %v", grp.id, o.u.Gen, err)
		}
	}
}

// finalCheck compares, after the last heal, each subscribed group's last
// pushed tree with a fresh GetTree.
func finalCheck(hc *http.Client, base string, sub *subscriber, groups []*group, rep *report) {
	for _, grp := range groups {
		var tr service.TreeResponse
		if err := call(hc, "GET", base+"/v1/groups/"+grp.id+"/tree", nil, &tr); err != nil {
			rep.problem("final GetTree %s: %v", grp.id, err)
			continue
		}
		sub.mu.Lock()
		u := sub.current[grp.id]
		sub.mu.Unlock()
		got, want := edgesOf(tr), slices.Clone(u.Edges)
		less := func(a, b [2]topology.NodeID) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		}
		slices.SortFunc(got, less)
		slices.SortFunc(want, less)
		if tr.Source != int32(u.Source) || !slices.Equal(got, want) {
			rep.problem("final tree of %s differs from its last push (generation %d vs %d)", grp.id, tr.Gen, u.Gen)
		}
	}
}
