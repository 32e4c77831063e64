package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root repeats these with each metric's direction (and, for the
// end-to-end ones, its regression bound); the smoke test keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// op_s.best is each input's fastest op, averaged over the run's inputs.
// Contention from other tenants of the host slows ops by up to 1.7x for tens
// of seconds at a time and never speeds them up, so a run's median op time
// says mostly how much of the run was contended; the fastest of dozens of
// repeats of the same input does not (README.md, Noise, has the measured
// spreads; the run line keeps each input's median, the pooled tail and
// every sample).
// quality_pct is the quality of what the op produces: the Table 12 saving
// of retiming in percentage points on compile, and the share of faults
// detected on cover; both are means over the run's inputs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s.best", "s"},
	{"peak_rss_mib", "MiB"},
	{"quality_pct", "%"},
}

// perLayer are the metrics a traced run reports, on every workload: mean
// per traced op, except the once-per-run probes (sim.*, host.calib_ms) and
// the trace's own shares. A layer a workload's op does not call reads 0.
var perLayer = []metricDef{
	{"netlist.parse_s", "s"},
	{"graph.build_s", "s"},
	{"graph.scc_s", "s"},
	{"flow.saturate_s", "s"},
	{"flow.trees", "count"},
	{"flow.trees_per_s", "1/s"},
	{"partition.group_s", "s"},
	{"partition.assign_s", "s"},
	{"partition.dfs_visits", "count"},
	{"partition.boundary_steps", "count"},
	{"partition.resplits", "count"},
	{"partition.refine_moves", "count"},
	{"partition.cut_nets", "count"},
	{"retime.solve_s", "s"},
	{"retime.solver_rounds", "count"},
	{"retime.spfa_relaxations", "count"},
	{"retime.covered_ratio", "ratio"},
	{"fault.campaign_s", "s"},
	{"fault.triage_busy_s", "s"},
	{"fault.escalation_busy_s", "s"},
	{"fault.pool_idle_s", "s"},
	{"fault.triage_batches", "count"},
	{"fault.escalation_batches", "count"},
	{"fault.survivors", "count"},
	{"fault.triage_drop_ratio", "ratio"},
	{"fault.coverage", "ratio"},
	{"sim.build_segment_s", "s"},
	{"sim.segments", "count"},
	{"sim.max_segment_cells", "count"},
	{"sim.step_ns.w1", "ns"},
	{"sim.step_ns.w4", "ns"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"host.calib_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet renders values under defs; a metric missing from values reads 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
