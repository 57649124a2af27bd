package main

import "fmt"

// metric is one number the benchmark prints, with its unit.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, as a user of the CLIs
// sees them. Their bounds live in BENCHMARK.json.
var endToEnd = []metric{
	{"work_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run. Every workload prints all of
// them; a layer the workload never calls reads 0. Times and counts are per
// traced job unless README.md says otherwise.
var perLayer = layerMetrics()

func layerMetrics() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{n, unit})
		}
	}
	add("ms", "nbhd.build.k2_ms", "nbhd.build.k3_ms", "nbhd.startup.ms", "nbhd.enumerate.self_ms",
		"nbhd.absorb.ms", "nbhd.assemble.ms", "nbhd.workers.idle_ms",
		"view.template.ms", "view.key.ms", "view.binkey.ms",
		"core.decide.ms", "core.sweep.ms", "core.sweep.residual_ms", "core.lang.ms",
		"graph.color.ms", "graph.enum.ms", "decoders.certify.ms", "sim.run_ms", "sim.gather.self_ms",
		"runtime.gc.pause_ms_per_job", "latency.job_ms_tail")
	for i := 1; i <= 17; i++ {
		add("ms", fmt.Sprintf("experiments.E%d.ms", i))
	}
	add("count", "nbhd.instances", "nbhd.views.extracted", "nbhd.views.template_memo_hits",
		"nbhd.intern.hits", "nbhd.intern.misses", "nbhd.views.accepting", "nbhd.shards.stolen",
		"core.decide.calls", "core.lang.calls", "core.sweep.labelings.checked", "core.sweep.shards.done",
		"sim.rounds", "sim.messages", "sim.records",
		"faults.dropped", "faults.duplicated", "faults.delayed", "faults.expired", "faults.timeouts",
		"runtime.gc.cycles_per_job", "runtime.heap.objects_per_job")
	add("ratio", "nbhd.template_memo.hit_ratio", "nbhd.intern.hit_ratio", "nbhd.accept_ratio",
		"core.decide.memo_hit_ratio", "core.sweep.lang.memo_hit_ratio",
		"sim.delivery_ratio", "runtime.cpu_util", "trace.overhead_ratio")
	add("us", "runtime.sched.latency_p90_us")
	return out
}

// ratioOf defines each per-layer ratio of a traced pass as the quotient of
// two sums taken over all its jobs. Names starting with "_" are sums kept
// only to form these ratios; they are never printed.
var ratioOf = map[string][2]string{
	"nbhd.template_memo.hit_ratio":   {"nbhd.views.template_memo_hits", "_nbhd.views.lookups"},
	"nbhd.intern.hit_ratio":          {"nbhd.intern.hits", "_nbhd.intern.lookups"},
	"nbhd.accept_ratio":              {"nbhd.views.accepting", "_nbhd.intern.classes"},
	"core.decide.memo_hit_ratio":     {"_core.decide.memo_hits", "_core.decide.lookups"},
	"core.sweep.lang.memo_hit_ratio": {"_core.lang.memo_hits", "_core.lang.lookups"},
	"sim.delivery_ratio":             {"sim.messages", "_sim.sends"},
}
