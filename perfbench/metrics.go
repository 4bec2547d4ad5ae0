package main

// metricDef names one metric the benchmark prints, with its unit and the
// direction that is better. The two lists are exactly the end_to_end and
// per_layer entries of BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Every workload prints all of them: in process, a job is
// one Engine.Run call and its first result is the first trial delivered
// to the callback; in service, a job is one submission (direct or through
// the coordinator) and first results are timed on direct NDJSON streams.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p90_s", "s", "lower"},
	{"first_result_p50_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the traced run's numbers, one group per module. A metric
// of a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"graphspec.build_s", "s", "lower"},
	{"graphspec.build_alloc_mib", "MiB", "lower"},
	{"graphspec.builds", "count", "lower"},

	{"engine.run_s", "s", "lower"},
	{"engine.trials", "count", "higher"},
	{"engine.overhead_ns_per_trial", "ns", "lower"},

	{"core.steps", "count", "higher"},
	{"core.ns_per_step.complete", "ns", "lower"},
	{"core.ns_per_step.torus", "ns", "lower"},
	{"core.ns_per_step.hypercube", "ns", "lower"},
	{"core.ns_per_step.cycle", "ns", "lower"},
	{"core.ns_per_step.tree", "ns", "lower"},
	{"core.ns_per_step.ct-uniform", "ns", "lower"},
	{"core.ns_per_step.wcomplete", "ns", "lower"},
	{"core.ns_per_step.rregular", "ns", "lower"},
	{"core.ns_per_step.torus-sparse", "ns", "lower"},

	{"lane.trials", "count", "higher"},
	{"lane.ns_per_step.wcomplete", "ns", "lower"},

	{"agg.add_ns", "ns", "lower"},
	{"agg.merge_s", "s", "lower"},
	{"agg.summary_bytes", "bytes", "lower"},

	{"sink.encode_ns_per_trial", "ns", "lower"},
	{"sink.decode_ns_per_trial", "ns", "lower"},
	{"sink.bytes_per_trial", "bytes", "lower"},

	{"server.submit_s", "s", "lower"},
	{"server.queue_wait_s", "s", "lower"},
	{"server.run_s", "s", "lower"},
	{"server.stream_s", "s", "lower"},
	{"server.requests", "count", "higher"},
	{"server.rejected", "count", "lower"},

	{"shard.run_s", "s", "lower"},
	{"shard.overhead_s", "s", "lower"},
	{"shard.overhead_s.stream", "s", "lower"},
	{"shard.overhead_s.summary", "s", "lower"},
	{"shard.submits_per_shard", "ratio", "lower"},
	{"shard.wal_bytes", "bytes", "lower"},

	{"failed_ratio", "ratio", "lower"},

	{"trace.spans", "count", "lower"},
	{"trace.overhead.trials_per_s", "1/s", "higher"},
	{"trace.overhead.job_latency_p50_s", "s", "lower"},
	{"trace.self_s.bench", "s", "lower"},
	{"trace.self_s.graphspec", "s", "lower"},
	{"trace.self_s.engine", "s", "lower"},
	{"trace.self_s.core", "s", "lower"},
	{"trace.self_s.lane", "s", "lower"},
	{"trace.self_s.agg", "s", "lower"},
	{"trace.self_s.sink", "s", "lower"},
	{"trace.self_s.server", "s", "lower"},
	{"trace.self_s.shard", "s", "lower"},
}

// layers are the span layers, in the order trace.self_s reports them.
var layers = []string{"bench", "graphspec", "engine", "core", "lane", "agg", "sink", "server", "shard"}
