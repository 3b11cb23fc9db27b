package main

import "fmt"

// metricDef names one metric and its unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// What each operation class is on each workload is set out in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ops_per_cpu_s", "ops/cpu-s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"get_p50_us", "us"},
	{"write_p50_us", "us"},
	{"push_p50_us", "us"},
}

// schemeLabels are the per-scheme CCT metric suffixes (peel+cores is
// written peel-cores).
var schemeLabels = []string{"ring", "tree", "optimal", "orca", "peel", "peel-cores", "striped-peel"}

// perLayer are the metrics every traced run prints, on every workload; a
// layer a workload never enters reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"get_p99_us", "us"}, {"write_p99_us", "us"}, {"push_p99_us", "us"},
		{"trace.wall_s", "s"}, {"trace.unattributed_s", "s"}, {"trace.spans", "count"},
		{"trace.overhead_pct", "%"}, {"trace.overhead_base_s", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	defs = append(defs, []metricDef{
		{"go.mallocs", "count"}, {"go.gc_cycles", "count"},
		{"sim.events", "count"}, {"sim.loop_s", "s"}, {"sim.ns_per_event", "ns"},
		{"netsim.link_bytes", "B"}, {"netsim.ecn_marks", "count"}, {"netsim.pfc_pauses", "count"},
		{"netsim.link_drops", "count"}, {"netsim.max_queue_bytes", "B"}, {"netsim.frames_delivered", "count"},
		{"dcqcn.cnp_reactions", "count"}, {"dcqcn.cnp_ignored", "count"},
		{"collective.start_s", "s"}, {"collective.started", "count"}, {"collective.completed", "count"},
		{"collective.stalls", "count"}, {"collective.repairs", "count"},
		{"collective.unicast_fallbacks", "count"}, {"collective.abandoned", "count"},
	}...)
	for _, s := range schemeLabels {
		defs = append(defs, metricDef{"collective.cct_mean_ms." + s, "ms"}, metricDef{"collective.cct_p99_ms." + s, "ms"})
	}
	defs = append(defs, []metricDef{
		{"steiner.peel_us", "us"}, {"steiner.disjoint_us", "us"},
		{"core.build_us", "us"}, {"core.plan_us", "us"},
		{"service.get_hit_p50_us", "us"}, {"service.get_hit_p99_us", "us"},
		{"service.get_miss_p50_us", "us"}, {"service.get_miss_p99_us", "us"},
		{"service.hit_ratio", "ratio"}, {"service.gets", "count"}, {"service.alloc_b_per_op", "B/op"},
		{"service.repairs_patched", "count"}, {"service.repairs_full_fallback", "count"},
		{"wire.pushes", "count"}, {"wire.shed", "count"}, {"wire.resyncs", "count"}, {"wire.gaps", "count"},
		{"http.get_overhead_us", "us"},
		{"gen.flap_late_p99_us", "us"},
	}...)
	return defs
}()

// finish makes rep carry exactly the metric set of its mode: per-layer
// metrics a workload did not produce read 0, and a missing end-to-end
// metric is an error, since each must be measured on every workload.
// Metrics outside the set stay in the printed lines but not in the JSON.
func finish(rep *report, trace bool) (json map[string]metric, err error) {
	have := map[string]metric{}
	for _, m := range rep.metrics {
		have[m.name] = m
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	json = map[string]metric{}
	for _, d := range defs {
		m, ok := have[d.name]
		switch {
		case !ok && trace:
			m = metric{name: d.name, unit: d.unit}
			rep.metrics = append(rep.metrics, m)
		case !ok:
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		case m.unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, listed in %s", d.name, m.unit, d.unit)
		}
		json[d.name] = m
	}
	return json, nil
}
