// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator (topology → netsim → collective.Runner → sim.Engine) and
// the peeld control plane (service.Service, the HTTP daemon, the wire
// push server) through their public functions, times every call from
// this package, checks the outputs against properties of the method, and
// prints every metric by name and unit. See README.md for the workloads,
// the metric-to-layer map and reference figures.
//
//	bash perfbench/run.sh --workload sim-fig5 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones, from a run that
// records spans around every layer call and writes them to
// .bench_build/trace/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its run function, in the order "all"
// runs them.
var workloads = []struct {
	name string
	run  func(*runCfg) (*report, error)
}{
	{"sim-fig5", runSimFig5},
	{"sim-failures", runSimFailures},
	{"ctl-read", runCtlRead},
	{"ctl-write-push", runCtlWritePush},
}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tr       *tracer // nil unless trace
	out      io.Writer
}

// metric is one printed figure. n is the sample count behind a
// percentile or median (0 when the figure is not a sample statistic).
type metric struct {
	name  string
	unit  string
	value float64
	n     uint64
}

// report is one workload run's outcome.
type report struct {
	attempted int64
	failed    int64
	problems  []string // output-check violations; any makes the run incorrect
	failures  []string // the first failed operations, for the printed lines
	metrics   []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v, 0})
}

func (r *report) addN(name, unit string, v float64, n uint64) {
	r.metrics = append(r.metrics, metric{name, unit, v, n})
}

// problem records a failed output check; the first few are kept verbatim.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further check failures suppressed")
	}
}

// fail counts one failed operation; the first few are kept verbatim.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// addOps reports an operation class: untraced runs give <name>_p50_us,
// the median of the round medians; traced runs give <name>_p99_us, the
// tail percentile of the samples pooled over the run's untraced rounds —
// the highest percentile with at least ten samples beyond it, p99 once
// there are 1000 samples.
func (r *report) addOps(trace bool, name string, o *opStats) {
	if !trace {
		r.addN(name+"_p50_us", "us", median(o.medians)/1e3, o.pooled.n)
		return
	}
	r.addN(name+"_p99_us", "us", o.pooled.quantile(tailQ(o.pooled.n))/1e3, o.pooled.n)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: sim-fig5, sim-failures, ctl-read, ctl-write-push, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "seconds to measure; caps the control-plane workloads' fixed budgets")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *wl == "all" {
		return runAll(args, stdout, stderr)
	}
	var drive func(*runCfg) (*report, error)
	for _, w := range workloads {
		if w.name == *wl {
			drive = w.run
		}
	}
	if drive == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	cfg := &runCfg{workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: stdout}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	rep, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *wl, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		rep.add("peak_rss_mb", "MB", peakRSSMB())
	}
	return printReport(stdout, stderr, *wl, rep, cfg.trace)
}

// printReport prints each metric on its own line, then the result JSON.
func printReport(w, stderr io.Writer, wl string, rep *report, trace bool) int {
	listed, err := finish(rep, trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl, err)
		return 1
	}
	sort.SliceStable(rep.metrics, func(i, j int) bool { return rep.metrics[i].name < rep.metrics[j].name })
	for _, m := range rep.metrics {
		if m.n > 0 {
			fmt.Fprintf(w, "%s %-34s %16.6f %-6s n=%d\n", wl, m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%s %-34s %16.6f %s\n", wl, m.name, m.value, m.unit)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "%s FAILED OPERATION: %s\n", wl, f)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", wl, p)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%v\n", wl, rep.attempted, rep.failed, len(rep.problems) == 0)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for name, m := range listed {
		ms[name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// runAll runs every workload in its own process, one after another, so
// heap and RSS figures never mix, and prints a combined result: the
// operation counts summed, correct only if every workload was, and each
// metric prefixed by its workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		base = append(base, a)
	}
	type res struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	all := res{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, base...)...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			last = sc.Text()
			if !strings.HasPrefix(last, "{") {
				fmt.Fprintln(stdout, last)
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w.name, err)
			return 1
		}
		var r res
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s printed no result: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is the slice of runtime.MemStats a round is charged with.
type memSnap struct {
	alloc, mallocs uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC}
}

// cpuSeconds is the process's CPU time so far, user and system, over
// every thread: the benchmark's goroutines, the program's own (a
// daemon's handlers, the refresh loop, the wire server) and the Go
// runtime's (GC workers). Linux accounts it from the scheduler's
// runtime, so time a sleeping goroutine or a descheduled vCPU does not
// run is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// roundLog records every measured round: its measured seconds, the
// process CPU seconds it took, its operations and what it allocated,
// split by whether spans were recorded.
type roundLog struct {
	wall    [2][]float64 // seconds; [0] untraced, [1] traced
	cpu     [2][]float64
	ops     [2][]float64
	allocB  [2][]float64
	mallocs [2][]float64
	gcs     [2][]float64
}

// measure runs whole rounds. With fixed > 0 the run's budget is fixed
// rounds, and the run's seconds only cap it; with fixed == 0 rounds run
// until the seconds have elapsed. Either way at least minRounds run.
// Traced runs alternate untraced and traced rounds (the untraced ones
// give the tracing-overhead base), so they need at least two of each.
// round reports its own measured seconds, which may exclude its checks,
// and the operations it completed; k is nil for untraced rounds.
func (c *runCfg) measure(minRounds, fixed int, round func(i int, k *track) (secs, ops float64, err error)) (*roundLog, error) {
	if c.trace && minRounds < 4 {
		minRounds = 4
	}
	log := &roundLog{}
	// Start from a collected heap, so the measured rounds meet the
	// program's own collections at the same points in every run.
	runtime.GC()
	start := time.Now()
	for i := 0; i < minRounds || (time.Since(start) < c.seconds && (fixed == 0 || i < fixed)); i++ {
		traced := c.trace && i%2 == 1
		var k *track
		if traced {
			k = c.tr.open(fmt.Sprintf("round%d", i))
		}
		m0, cpu0 := readMem(), cpuSeconds()
		secs, ops, err := round(i, k)
		m1, cpu1 := readMem(), cpuSeconds()
		k.close()
		if err != nil {
			return nil, err
		}
		t := 0
		if traced {
			t = 1
		}
		log.wall[t] = append(log.wall[t], secs)
		log.cpu[t] = append(log.cpu[t], cpu1-cpu0)
		log.ops[t] = append(log.ops[t], ops)
		log.allocB[t] = append(log.allocB[t], float64(m1.alloc-m0.alloc))
		log.mallocs[t] = append(log.mallocs[t], float64(m1.mallocs-m0.mallocs))
		log.gcs[t] = append(log.gcs[t], float64(m1.gcs-m0.gcs))
	}
	return log, nil
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median.
const setupReps = 21

// setup runs a workload's set-up setupReps times and, in untraced runs,
// reports the median as setup_s. body returns a teardown for what it
// built; every repetition but the last is torn down before the next, and
// the caller owns the last one's teardown. Each repetition starts after
// a collection, so none is charged for the garbage of the one before.
func (c *runCfg) setup(rep *report, body func(k *track) (teardown func() error, err error)) (teardown func() error, err error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		k := c.tr.open("setup")
		k.begin("bench.setup", uint64(i))
		t0 := time.Now()
		teardown, err = body(k)
		secs = append(secs, time.Since(t0).Seconds())
		k.close()
		if err != nil {
			return nil, err
		}
	}
	if !c.trace {
		rep.addN("setup_s", "s", median(secs), uint64(len(secs)))
	}
	return teardown, nil
}

// rounds returns how many rounds of the given kind ran.
func (l *roundLog) rounds(traced int) int { return len(l.wall[traced]) }

// addRunMetrics adds the round-level metrics every workload reports:
// in untraced runs run_s (measured seconds), ops_per_cpu_s (operations
// per process CPU second) and alloc_mb, each the median over rounds; in
// traced runs the runtime counters and the tracing overhead.
func (c *runCfg) addRunMetrics(rep *report, l *roundLog) {
	if !c.trace {
		n := uint64(l.rounds(0))
		rates := make([]float64, n)
		for i, cpu := range l.cpu[0] {
			rates[i] = l.ops[0][i] / cpu
		}
		rep.addN("run_s", "s", median(append([]float64(nil), l.wall[0]...)), n)
		rep.addN("ops_per_cpu_s", "ops/cpu-s", median(rates), n)
		rep.addN("alloc_mb", "MB", median(append([]float64(nil), l.allocB[0]...))/1e6, n)
		return
	}
	n := uint64(l.rounds(1))
	rep.addN("go.mallocs", "count", median(append([]float64(nil), l.mallocs[1]...)), n)
	rep.addN("go.gc_cycles", "count", median(append([]float64(nil), l.gcs[1]...)), n)
	base := median(append([]float64(nil), l.wall[0]...))
	traced := median(append([]float64(nil), l.wall[1]...))
	rep.addN("trace.overhead_base_s", "s", base, uint64(l.rounds(0)))
	rep.addN("trace.overhead_pct", "%", 100*(traced-base)/base, n)
	self, unattributed, total, spans := c.tr.summary()
	sum := unattributed
	for _, layer := range layers {
		rep.add("self_s."+layer, "s", self[layer])
		sum += self[layer]
	}
	if d := sum - total; d > 1e-6 || d < -1e-6 {
		rep.problem("layer self times plus unattributed time (%.6fs) do not add up to the traced time (%.6fs)", sum, total)
	}
	rep.add("trace.unattributed_s", "s", unattributed)
	rep.add("trace.wall_s", "s", total)
	rep.add("trace.spans", "count", float64(spans))
}
