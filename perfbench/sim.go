package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"peel/internal/chaos"
	"peel/internal/collective"
	"peel/internal/controller"
	"peel/internal/core"
	"peel/internal/netsim"
	"peel/internal/sim"
	"peel/internal/steiner"
	"peel/internal/telemetry"
	"peel/internal/topology"
	"peel/internal/workload"
)

// The simulation workloads. A round runs every simulation of the
// workload's inputs one after another on one goroutine, each on a fresh
// fabric, exactly as the repository's figure sweeps do with one worker;
// the inputs are generated once per run from the seed, so every round
// repeats the same simulations (and must reproduce the same simulated
// statistics — the determinism check below).
//
// Operation classes (README.md): get = core.BuildTree on a collective's
// fabric and member set, the tree a controller would hand out for it;
// write = core.RepairTree of that tree after one of its switch–switch
// links fails, the rewrite a failure forces; push = Runner.StartReport,
// the call that plans the collective and installs its flows in the
// simulated fabric. Get and write run after the simulations, outside
// run_s, probeReps times per collective.

const (
	// framesPerMessage is the reduced simulation granularity of the
	// repository's quick figures: frame = message/32, clamped to
	// [4 KiB, 4 MiB].
	framesPerMessage = 32
	simMaxEvents     = 600_000_000
	gpusPerHost      = 8
	probeReps        = 4
)

// simConfig mirrors the figure sweeps' per-message netsim configuration:
// DCQCN thresholds and buffers scale with the frame size.
func simConfig(msgBytes, seed int64) netsim.Config {
	cfg := netsim.DefaultConfig()
	f := msgBytes / framesPerMessage
	if f < 4<<10 {
		f = 4 << 10
	}
	if f > 4<<20 {
		f = 4 << 20
	}
	cfg.FrameBytes = f
	cfg.ECNKminBytes = 10 * f / 3
	cfg.ECNKmaxBytes = 133 * f
	cfg.BufferBytes = 8000 * f
	cfg.Seed = seed
	return cfg
}

// mix derives an independent stream seed from the run seed and a stream
// index (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// fabric is one generated fabric with the collectives placed on it. g is
// the set-up copy, used read-only for the get phase and the per-layer
// calls; every simulation builds its own with build.
type fabric struct {
	name    string
	build   func() *topology.Graph
	g       *topology.Graph
	planner *core.Planner // fat-trees only
	cols    []*workload.Collective
}

// simJob is one simulation: a fresh fabric, one scheme, its collectives.
type simJob struct {
	id       uint64
	label    string
	scheme   collective.Scheme
	fab      *fabric
	cols     []*workload.Collective
	cfg      netsim.Config
	watchdog sim.Time
	sched    *chaos.Schedule // mid-flight failures, nil for none
}

// simResult is what one simulation produced. cct is indexed like the
// job's collectives; a collective that abandoned receivers is failed and
// has cct -1.
type simResult struct {
	job              *simJob
	cct              []sim.Time
	started, done    int
	failed           int
	rec              collective.RecoveryStats
	events           uint64
	simNs, runNs     int64
	startNs          int64
	linkBytes        int64
	ecn, pfc, drops  uint64
	maxQ             int64
	cnpReact, cnpIgn uint64
	framesDelivered  int64
}

// simSamples accumulates per-operation host latencies (see the
// operation classes above).
type simSamples struct{ get, write, push hist }

// runSim runs one simulation and checks its outputs.
func runSim(job *simJob, k *track, smp *simSamples, rep *report) (*simResult, error) {
	t0 := time.Now()
	k.begin("topology.build", job.id)
	g := job.fab.build()
	k.end()
	k.begin("netsim.new", job.id)
	eng := &sim.Engine{}
	net := netsim.New(g, eng, job.cfg)
	k.end()
	var pl *core.Planner
	if job.fab.planner != nil {
		k.begin("core.planner", job.id)
		var err error
		pl, err = core.NewPlanner(g)
		k.end()
		if err != nil {
			return nil, err
		}
	}
	runner := collective.NewRunner(net, workload.NewCluster(g, gpusPerHost), pl,
		controller.New(job.cfg.RNG(netsim.SaltController)))
	runner.Watchdog = job.watchdog
	if job.sched != nil {
		if err := chaos.NewInjector(g, eng).Arm(job.sched); err != nil {
			return nil, err
		}
	}
	res := &simResult{job: job, cct: make([]sim.Time, len(job.cols))}
	var startErr error
	for i, c := range job.cols {
		i, c := i, c
		res.cct[i] = -1
		eng.At(c.Arrival, func() {
			k.begin("collective.start", uint64(c.ID))
			s0 := time.Now()
			res.started++
			err := runner.StartReport(c, job.scheme, func(r collective.Report) {
				res.done++
				addRecovery(&res.rec, r.Recovery)
				if r.Recovery.Abandoned > 0 {
					res.failed++
				} else {
					res.cct[i] = r.CCT
				}
			})
			d := time.Since(s0)
			k.end()
			smp.push.add(d)
			res.startNs += int64(d)
			if err != nil && startErr == nil {
				startErr = err
			}
		})
	}
	var frames0 int64
	if ts := telemetry.Active(); ts != nil {
		frames0 = ts.Counter("netsim.frames_delivered").Value()
	}
	k.begin("sim.run", job.id)
	r0 := time.Now()
	err := eng.Run(simMaxEvents)
	res.runNs = int64(time.Since(r0))
	k.end()
	res.simNs = int64(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.label, err)
	}

	k.begin("check.sim", job.id)
	defer k.end()
	res.events = eng.Processed()
	res.linkBytes = net.TotalBytes()
	res.ecn, res.pfc, res.drops = net.TotalECNMarks, net.PFCPauses, net.LinkDrops
	res.maxQ = net.Telemetry().MaxQueueBytes
	for _, f := range net.Flows() {
		res.cnpReact += f.Sender().Reactions()
		res.cnpIgn += f.Sender().Ignored()
	}
	if ts := telemetry.Active(); ts != nil {
		res.framesDelivered = ts.Counter("netsim.frames_delivered").Value() - frames0
	}
	checkSim(res, startErr, net, rep)
	return res, nil
}

func addRecovery(dst *collective.RecoveryStats, r collective.RecoveryStats) {
	dst.Stalls += r.Stalls
	dst.Repairs += r.Repairs
	dst.UnicastFallbacks += r.UnicastFallbacks
	dst.Abandoned += r.Abandoned
}

// checkSim verifies one simulation against properties of the method
// rather than against stored output:
//   - every started collective completed, and nothing is left in flight;
//   - every CCT is at least the bandwidth bound 8·M / LinkBps;
//   - the fabric carried at least Σ M × (member hosts) bytes, since each
//     member's single link to its ToR carries the whole message once.
//
// Collectives that abandoned receivers are failed operations; they are
// left out of the CCT and byte bounds.
func checkSim(res *simResult, startErr error, net *netsim.Network, rep *report) {
	job := res.job
	if startErr != nil {
		rep.problem("%s: start failed: %v", job.label, startErr)
	}
	if res.started != len(job.cols) || res.done != res.started {
		rep.problem("%s: %d collectives, %d started, %d completed", job.label, len(job.cols), res.started, res.done)
	}
	if net.InFlight() {
		rep.problem("%s: frames still in flight after the run", job.label)
	}
	var minBytes int64
	for i, c := range job.cols {
		if res.cct[i] < 0 {
			continue
		}
		minBytes += c.Bytes * int64(len(c.Hosts))
		bound := sim.FromSeconds(8 * float64(c.Bytes) / job.cfg.LinkBps)
		if res.cct[i] < bound {
			rep.problem("%s: collective %d CCT %v below the bandwidth bound %v", job.label, c.ID, res.cct[i].Duration(), bound.Duration())
		}
	}
	if res.linkBytes < minBytes {
		rep.problem("%s: fabric carried %d bytes, below the %d the members' links must carry", job.label, res.linkBytes, minBytes)
	}
}

// digest hashes every simulated statistic of a round: the CCT of every
// collective, link bytes, drops, and the ECN, PFC and CNP counts. The
// simulator is deterministic, so every round of a run must reproduce the
// first round's digest, traced or not; it is printed so two commits can
// be compared by eye, never checked against a stored copy.
func digest(results []*simResult) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d;", r.job.label, r.events, r.linkBytes,
			r.ecn, r.pfc, r.drops, r.maxQ, r.cnpReact, r.cnpIgn, r.rec.Stalls, r.rec.Repairs, r.rec.Abandoned)
		for _, c := range r.cct {
			fmt.Fprintf(h, "%d,", int64(c))
		}
	}
	return h.Sum64()
}

// simWorkload is one simulation workload's generated inputs.
type simWorkload struct {
	fabrics []*fabric
	// batches make a round's simulations, one batch after another; a
	// batch may depend on the previous batch's results (the chaos
	// failures are timed off each collective's clean CCT).
	batches []func(prev []*simResult) []*simJob
}

// round runs every batch, then the get and write probes, and returns the
// simulations' results and the seconds spent simulating.
func (w *simWorkload) round(k *track, smp *simSamples, rep *report) ([]*simResult, float64, error) {
	var all, prev []*simResult
	var simNs int64
	for _, batch := range w.batches {
		jobs := batch(prev)
		prev = prev[:0:0]
		for _, j := range jobs {
			r, err := runSim(j, k, smp, rep)
			if err != nil {
				return nil, 0, err
			}
			simNs += r.simNs
			prev = append(prev, r)
		}
		all = append(all, prev...)
	}
	for _, f := range w.fabrics {
		for _, c := range f.cols {
			for r := 0; r < probeReps; r++ {
				probeTree(f, c, k, smp, rep)
			}
		}
	}
	return all, float64(simNs) / 1e9, nil
}

// probeTree times the get and write probes for one collective: its tree
// from core.BuildTree, and core.RepairTree of that tree once its first
// switch–switch link has failed. The link is restored afterwards, so f.g
// is unchanged for every other caller.
func probeTree(f *fabric, c *workload.Collective, k *track, smp *simSamples, rep *report) {
	id := uint64(c.ID)
	k.begin("core.build", id)
	t0 := time.Now()
	tree, err := core.BuildTree(f.g, c.Source(), c.Receivers())
	d := time.Since(t0)
	k.end()
	smp.get.add(d)
	if err == nil {
		err = checkBuilt(f.g, tree, c)
	}
	if err != nil {
		rep.problem("%s: BuildTree for collective %d: %v", f.name, c.ID, err)
		return
	}
	link := topology.LinkID(-1)
	for _, m := range tree.Members[1:] {
		p := tree.Parent[m]
		if f.g.Node(p).Kind.IsSwitch() && f.g.Node(m).Kind.IsSwitch() {
			link = f.g.LinkBetween(p, m)
			break
		}
	}
	if link < 0 {
		return // every member under the source's switch: nothing to fail
	}
	f.g.FailLink(link)
	defer f.g.RestoreLink(link)
	k.begin("core.repair", id)
	t0 = time.Now()
	fixed, _, err := core.RepairTree(f.g, tree, link, c.Receivers(), steiner.DefaultRepairPolicy())
	d = time.Since(t0)
	k.end()
	smp.write.add(d)
	if err == nil {
		err = checkBuilt(f.g, fixed, c)
	}
	if err != nil {
		rep.problem("%s: RepairTree for collective %d after link %d failed: %v", f.name, c.ID, link, err)
	}
}

// checkBuilt checks a tree built for collective c on g with the
// benchmark's own tree check: rooted at c's source, spanning exactly c's
// hosts, over links that are live in g.
func checkBuilt(g *topology.Graph, t *steiner.Tree, c *workload.Collective) error {
	if t.Source != c.Source() {
		return fmt.Errorf("rooted at %d, source is %d", t.Source, c.Source())
	}
	_, err := checkTree(g, c.Source(), slices.Sorted(slices.Values(c.Hosts)), treeEdges(t), nil)
	return err
}

// runSimWorkload measures w and assembles the report.
//
// The simulator is serial, so the workload runs on one P: its garbage
// collection then shares the simulating core instead of waking a second
// one dozens of times a second. On a shared 2-vCPU VM that made run_s
// steadier from run to run (interleaved runs on six seeds: spread 0.10
// against 0.37 with two Ps), at the cost of about 25% more host time.
func runSimWorkload(c *runCfg, setup func(k *track) (*simWorkload, error)) (*report, error) {
	runtime.GOMAXPROCS(1)
	rep := &report{}
	var w *simWorkload
	if _, err := c.setup(rep, func(k *track) (func() error, error) {
		var err error
		w, err = setup(k)
		return nil, err
	}); err != nil {
		return nil, err
	}
	var get, write, push opStats
	var tracedGet hist
	var first uint64
	var lastTraced []*simResult
	log, err := c.measure(3, 0, func(i int, k *track) (float64, float64, error) {
		if k != nil {
			defer telemetry.Enable(telemetry.NewSink(0))()
		}
		var smp simSamples
		k.begin("bench.round", uint64(i))
		results, secs, err := w.round(k, &smp, rep)
		k.end()
		if err != nil {
			return 0, 0, err
		}
		d := digest(results)
		if i == 0 {
			first = d
			fmt.Fprintf(c.out, "%s digest %016x (CCTs, link bytes, drops, ECN/PFC/CNP counts)\n", c.workload, d)
		} else if d != first {
			rep.problem("round %d simulated statistics digest %016x differs from round 0's %016x", i, d, first)
		}
		var done float64
		for _, r := range results {
			rep.attempted += int64(r.started)
			rep.failed += int64(r.failed)
			done += float64(r.done)
		}
		if k != nil {
			lastTraced = results
			tracedGet.merge(&smp.get)
		} else {
			get.addRound(&smp.get)
			write.addRound(&smp.write)
			push.addRound(&smp.push)
		}
		return secs, done, nil
	})
	if err != nil {
		return nil, err
	}
	if c.trace {
		addSimLayers(rep, lastTraced, &tracedGet)
		k := c.tr.open("layers")
		addTreeLayers(rep, w.fabrics, k)
		k.close()
	}
	rep.addOps(c.trace, "get", &get)
	rep.addOps(c.trace, "write", &write)
	rep.addOps(c.trace, "push", &push)
	c.addRunMetrics(rep, log)
	return rep, nil
}

// addSimLayers reports one traced round's simulated statistics and its
// simulator-side host times.
func addSimLayers(rep *report, results []*simResult, get *hist) {
	var events uint64
	var startNs, runNs, linkBytes, maxQ, frames int64
	var ecn, pfc, drops, react, ign uint64
	var rec collective.RecoveryStats
	var started, done int
	ccts := map[string][]float64{}
	for _, r := range results {
		events += r.events
		runNs += r.runNs
		startNs += r.startNs
		linkBytes += r.linkBytes
		ecn, pfc, drops = ecn+r.ecn, pfc+r.pfc, drops+r.drops
		react, ign = react+r.cnpReact, ign+r.cnpIgn
		frames += r.framesDelivered
		if r.maxQ > maxQ {
			maxQ = r.maxQ
		}
		addRecovery(&rec, r.rec)
		started += r.started
		done += r.done
		label := schemeLabel(r.job.scheme)
		for _, c := range r.cct {
			if c >= 0 {
				ccts[label] = append(ccts[label], c.Seconds()*1e3)
			}
		}
	}
	// The event loop's own time: Engine.Run minus the collective starts
	// nested inside it. It still holds netsim, dcqcn and the collective
	// callbacks the events run, which only a profile can split further.
	loopNs := float64(runNs - startNs)
	rep.add("sim.events", "count", float64(events))
	rep.add("sim.loop_s", "s", loopNs/1e9)
	if events > 0 {
		rep.add("sim.ns_per_event", "ns", loopNs/float64(events))
	}
	rep.add("collective.start_s", "s", float64(startNs)/1e9)
	rep.add("collective.started", "count", float64(started))
	rep.add("collective.completed", "count", float64(done))
	rep.add("collective.stalls", "count", float64(rec.Stalls))
	rep.add("collective.repairs", "count", float64(rec.Repairs))
	rep.add("collective.unicast_fallbacks", "count", float64(rec.UnicastFallbacks))
	rep.add("collective.abandoned", "count", float64(rec.Abandoned))
	rep.add("netsim.link_bytes", "B", float64(linkBytes))
	rep.add("netsim.ecn_marks", "count", float64(ecn))
	rep.add("netsim.pfc_pauses", "count", float64(pfc))
	rep.add("netsim.link_drops", "count", float64(drops))
	rep.add("netsim.max_queue_bytes", "B", float64(maxQ))
	rep.add("netsim.frames_delivered", "count", float64(frames))
	rep.add("dcqcn.cnp_reactions", "count", float64(react))
	rep.add("dcqcn.cnp_ignored", "count", float64(ign))
	for label, xs := range ccts {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		rep.addN("collective.cct_mean_ms."+label, "ms", sum/float64(len(xs)), uint64(len(xs)))
		// Simulated CCTs are deterministic, so the p99 needs no tail guard.
		rep.addN("collective.cct_p99_ms."+label, "ms", percentile(xs, 0.99), uint64(len(xs)))
	}
	rep.addN("core.build_us", "us", get.quantile(0.5)/1e3, get.n)
}

func schemeLabel(s collective.Scheme) string {
	if s == collective.PEELCores {
		return "peel-cores"
	}
	return string(s)
}

// addTreeLayers times the tree builders on the fabrics and member sets
// the collectives used: steiner.LayerPeeling and steiner.DisjointTrees
// (k=4) everywhere, and the PEEL prefix planner where the fabric is a
// fat-tree.
func addTreeLayers(rep *report, fabrics []*fabric, k *track) {
	var peel, disjoint, plan []float64
	for _, f := range fabrics {
		for _, c := range f.cols {
			id := uint64(c.ID)
			k.begin("steiner.peel", id)
			t0 := time.Now()
			_, _, err := steiner.LayerPeeling(f.g, c.Source(), c.Receivers())
			peel = append(peel, float64(time.Since(t0))/1e3)
			k.end()
			if err != nil {
				rep.problem("%s: LayerPeeling: %v", f.name, err)
			}
			k.begin("steiner.disjoint", id)
			t0 = time.Now()
			_, _, err = steiner.DisjointTrees(f.g, c.Source(), c.Receivers(), 4)
			disjoint = append(disjoint, float64(time.Since(t0))/1e3)
			k.end()
			if err != nil {
				rep.problem("%s: DisjointTrees: %v", f.name, err)
			}
			if f.planner == nil {
				continue
			}
			k.begin("core.plan", id)
			t0 = time.Now()
			_, err = f.planner.PlanGroup(c.Source(), c.Receivers())
			plan = append(plan, float64(time.Since(t0))/1e3)
			k.end()
			if err != nil {
				rep.problem("%s: PlanGroup: %v", f.name, err)
			}
		}
	}
	rep.addN("steiner.peel_us", "us", median(peel), uint64(len(peel)))
	rep.addN("steiner.disjoint_us", "us", median(disjoint), uint64(len(disjoint)))
	if len(plan) > 0 {
		rep.addN("core.plan_us", "us", median(plan), uint64(len(plan)))
	}
}

// newFabric builds the set-up copy of a fabric and places collectives on
// it.
func newFabric(k *track, name string, build func() *topology.Graph, planner bool,
	n int, load float64, spec workload.Spec, rng *rand.Rand) (*fabric, error) {
	f := &fabric{name: name, build: build}
	k.begin("topology.build", 0)
	f.g = build()
	k.end()
	if planner {
		k.begin("core.planner", 0)
		var err error
		f.planner, err = core.NewPlanner(f.g)
		k.end()
		if err != nil {
			return nil, err
		}
	}
	k.begin("workload.generate", 0)
	cols, err := workload.NewCluster(f.g, gpusPerHost).Generate(n, load, netsim.DefaultConfig().LinkBps, spec, rng)
	k.end()
	if err != nil {
		return nil, err
	}
	f.cols = cols
	return f, nil
}

// jobsFor makes one simulation per scheme for each fabric.
func jobsFor(fabrics []*fabric, schemes []collective.Scheme, cfg func(f *fabric) netsim.Config) []*simJob {
	var jobs []*simJob
	for _, f := range fabrics {
		for _, s := range schemes {
			jobs = append(jobs, &simJob{id: uint64(len(jobs)), label: f.name + "/" + string(s),
				scheme: s, fab: f, cols: f.cols, cfg: cfg(f)})
		}
	}
	return jobs
}

// fig5Sizes are the message sizes (MB) of sim-fig5: the small, middle and
// large points of the paper's Fig. 5 sweep.
var fig5Sizes = []int64{2, 8, 32, 128}

// fig5Collectives is the number of broadcasts per message size.
const fig5Collectives = 12

// runSimFig5 is the paper's Fig. 5 setup: a fault-free FatTree(8),
// 512-GPU broadcasts with Poisson arrivals at 30% load, all six schemes,
// three message sizes.
func runSimFig5(c *runCfg) (*report, error) {
	return runSimWorkload(c, func(k *track) (*simWorkload, error) {
		w := &simWorkload{}
		for xi, mb := range fig5Sizes {
			rng := rand.New(rand.NewSource(mix(c.seed, xi)))
			f, err := newFabric(k, fmt.Sprintf("fattree8@%dMB", mb), func() *topology.Graph { return topology.FatTree(8) },
				true, fig5Collectives, 0.30, workload.Spec{GPUs: 512, Bytes: mb << 20}, rng)
			if err != nil {
				return nil, err
			}
			w.fabrics = append(w.fabrics, f)
		}
		jobs := jobsFor(w.fabrics, collective.AllSchemes, func(f *fabric) netsim.Config {
			return simConfig(f.cols[0].Bytes, c.seed)
		})
		w.batches = []func([]*simResult) []*simJob{func([]*simResult) []*simJob { return jobs }}
		return w, nil
	})
}

const (
	// fig7Fabrics leaf–spines with independent random 10% spine–leaf
	// failures, each carrying fig7Collectives broadcasts.
	fig7Fabrics     = 4
	fig7Collectives = 40
	fig7Bytes       = 8 << 20
	chaosBytes      = 32 << 20
	// chaosSeed fixes the ChaosStudy part's inputs. They do not depend on
	// the run seed, so striped-peel's abandoned collectives (README.md)
	// are the same share of every run's operations.
	chaosSeed        = 1
	chaosCollectives = 6
)

var chaosFracs = []float64{0.10, 0.20}

// chaosSchemes is ChaosStudy's roster, in its order (the order also salts
// each scheme's failure draw).
var chaosSchemes = []collective.Scheme{collective.PEEL, collective.Ring, collective.Orca, collective.StripedPEEL}

// runSimFailures runs the two unhealthy-fabric settings: Fig. 7's
// leaf–spine with 10% of spine–leaf links failed before planning, and
// ChaosStudy's mid-flight failures on FatTree(4) with the watchdog on.
func runSimFailures(c *runCfg) (*report, error) {
	return runSimWorkload(c, func(k *track) (*simWorkload, error) {
		w := &simWorkload{}
		spineLeaf := topology.TierLinks(topology.Spine, topology.Leaf)
		var fig7 []*fabric
		for fi := 0; fi < fig7Fabrics; fi++ {
			failSeed := mix(c.seed, 100+fi)
			build := func() *topology.Graph {
				g := topology.LeafSpine(16, 48, 2)
				g.FailRandomFraction(0.10, spineLeaf, rand.New(rand.NewSource(failSeed)))
				return g
			}
			f, err := newFabric(k, fmt.Sprintf("leafspine%d", fi), build, false, fig7Collectives, 0.30,
				workload.Spec{GPUs: 64, Bytes: fig7Bytes}, rand.New(rand.NewSource(mix(c.seed, 200+fi))))
			if err != nil {
				return nil, err
			}
			fig7 = append(fig7, f)
		}
		ft4, err := newFabric(k, "fattree4", func() *topology.Graph { return topology.FatTree(4) }, true,
			chaosCollectives, 0.1, workload.Spec{GPUs: 64, Bytes: chaosBytes}, rand.New(rand.NewSource(chaosSeed)))
		if err != nil {
			return nil, err
		}
		w.fabrics = append(fig7, ft4)

		fig7Jobs := jobsFor(fig7, []collective.Scheme{collective.PEEL, collective.StripedPEEL, collective.Ring, collective.BinTree},
			func(*fabric) netsim.Config { return simConfig(fig7Bytes, c.seed) })
		// ChaosStudy: a clean pass per (scheme, collective) times the
		// failures at 30% of its CCT; links heal 1 ms later.
		var clean []*simJob
		for si, s := range chaosSchemes {
			for ci, col := range ft4.cols {
				clean = append(clean, &simJob{id: uint64(1000 + si*100 + ci), label: fmt.Sprintf("chaos-clean/%s/%d", s, ci),
					scheme: s, fab: ft4, cols: []*workload.Collective{chaosCol(col)},
					cfg: simConfig(chaosBytes, chaosSeed+int64(ci)), watchdog: 100 * sim.Microsecond})
			}
		}
		chaosJobs := func(prev []*simResult) []*simJob {
			var jobs []*simJob
			for fi, frac := range chaosFracs {
				for si, s := range chaosSchemes {
					for ci := range ft4.cols {
						cl := prev[si*len(ft4.cols)+ci]
						if cl.cct[0] < 0 {
							continue // the clean pass failed; checkSim reported it
						}
						failAt := cl.cct[0] * 3 / 10
						rng := cl.job.cfg.RNG(netsim.SaltChaos + int64(si)*1000 + int64(ci))
						sched, _ := chaos.FailFractionAt(ft4.build(), topology.SwitchLinks, frac, failAt, failAt+sim.Millisecond, rng)
						jobs = append(jobs, &simJob{id: uint64(2000 + fi*1000 + si*100 + ci),
							label: fmt.Sprintf("chaos%.2f/%s/%d", frac, s, ci), scheme: s, fab: ft4,
							cols: cl.job.cols, cfg: cl.job.cfg, watchdog: cl.job.watchdog, sched: sched})
					}
				}
			}
			return jobs
		}
		w.batches = []func([]*simResult) []*simJob{
			func([]*simResult) []*simJob { return fig7Jobs },
			func([]*simResult) []*simJob { return clean },
			chaosJobs,
		}
		return w, nil
	})
}

// chaosCol is ChaosStudy's placement of one collective: it starts at time
// zero on its own fresh fabric.
func chaosCol(c *workload.Collective) *workload.Collective {
	cc := *c
	cc.Arrival = 0
	return &cc
}
