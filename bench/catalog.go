package main

// metricDef is one metric of the benchmark definition. The tables below
// mirror BENCHMARK.json exactly (TestBenchmarkJSON pins the two
// together); the program needs them to label its output without
// reading the definition file.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists what an untraced run reports, on every workload. Each
// workload gives each metric its own concrete meaning (README.md has the
// table): for the ingest workloads a record is the unit of throughput
// and a finding's detection the unit of latency; for the campaign a
// simulated trial is the unit of throughput and a job that of latency.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "serial_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layerDef is one per-layer metric of a traced run, with the end-to-end
// metric it should move and the workload on which that shows. The
// mapping is written down before any optimisation is measured, so a
// claimed gain can be checked against the layer it names.
type layerDef struct {
	metricDef
	Moves string
	On    string
}

func layer(name, unit, better, moves, on string) layerDef {
	return layerDef{metricDef: metricDef{Name: name, Unit: unit, Better: better}, Moves: moves, On: on}
}

var perLayer = []layerDef{
	layer("snoop.sweep_ns_per_rec", "ns", "lower", "serial_per_s", "ingest-sparse"),
	layer("snoop.prefilter_ns_per_rec", "ns", "lower", "throughput_per_s", "ingest-sparse"),
	layer("snoop.kept_share", "ratio", "lower", "serial_per_s", "ingest-sparse"),
	layer("snoop.allocs_per_rec", "count", "lower", "serial_per_s", "ingest-sparse"),

	layer("forensics.reduce_ns_per_rec", "ns", "lower", "throughput_per_s", "ingest-dense"),
	layer("forensics.reduce_ns_per_finding", "ns", "lower", "latency_p50_ms", "ingest-dense"),
	layer("forensics.allocs_per_rec", "count", "lower", "serial_per_s", "ingest-dense"),
	layer("forensics.checkpoint_bytes", "bytes", "lower", "throughput_per_s", "ingest-dense"),
	layer("forensics.checkpoint_us", "us", "lower", "throughput_per_s", "ingest-dense"),
	layer("forensics.restore_us", "us", "lower", "setup_s", "ingest-dense"),

	layer("sentinel.pipeline_ns_per_rec", "ns", "lower", "throughput_per_s", "ingest-dense"),
	layer("sentinel.transport_ns_per_rec", "ns", "lower", "throughput_per_s", "ingest-sparse"),
	layer("sentinel.persist_ns_per_rec", "ns", "lower", "latency_p90_ms", "ingest-dense"),
	layer("sentinel.stage_scan_us_p50", "us", "lower", "throughput_per_s", "ingest-sparse"),
	layer("sentinel.stage_push_us_p50", "us", "lower", "throughput_per_s", "ingest-dense"),
	layer("sentinel.stage_drain_us_p50", "us", "lower", "latency_p50_ms", "ingest-dense"),
	layer("sentinel.stage_emit_us_p50", "us", "lower", "latency_p50_ms", "ingest-dense"),
	layer("sentinel.shard_skew", "ratio", "lower", "throughput_per_s", "ingest-fanin"),
	layer("sentinel.checkpoints", "count", "higher", "throughput_per_s", "ingest-dense"),
	layer("sentinel.events_dropped", "count", "lower", "latency_p90_ms", "ingest-dense"),
	layer("sentinel.persist_dropped", "count", "lower", "latency_p90_ms", "ingest-dense"),
	layer("sentinel.query_p50_ms", "ms", "lower", "latency_p50_ms", "ingest-dense"),
	layer("sentinel.query_p95_ms", "ms", "lower", "latency_p90_ms", "ingest-dense"),

	layer("tsdb.append_ns_per_frame", "ns", "lower", "throughput_per_s", "ingest-dense"),
	layer("tsdb.query_us", "us", "lower", "latency_p50_ms", "ingest-dense"),
	layer("tsdb.sync_series_us", "us", "lower", "throughput_per_s", "ingest-dense"),

	layer("campaign.parallel_efficiency", "ratio", "higher", "throughput_per_s", "campaign"),
	layer("campaign.trial_p50_us", "us", "lower", "latency_p50_ms", "campaign"),
	layer("campaign.trial_p99_us", "us", "lower", "latency_p90_ms", "campaign"),
	layer("campaign.retries", "count", "lower", "throughput_per_s", "campaign"),

	layer("btcrypto.e1_auth_ns", "ns", "lower", "throughput_per_s", "campaign"),
	layer("btcrypto.keypair_us", "us", "lower", "throughput_per_s", "campaign"),

	layer("loadgen.late_ms_p99", "ms", "lower", "latency_p90_ms", "ingest-sparse"),
	layer("trace.overhead_share", "ratio", "lower", "throughput_per_s", "ingest-sparse"),
}

// catalog returns the metric list a run reports: the end-to-end metrics
// untraced, the per-layer ones traced.
func catalog(traced bool) []metricDef {
	if !traced {
		return endToEnd
	}
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
	}
	return defs
}

func unitOf(name string) string {
	for _, d := range append(catalog(false), catalog(true)...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
