package main

// metricDef declares one metric the harness prints. BENCHMARK.json at the
// repository root carries the same declarations for the driver;
// TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd lists the metrics measured with tracing off. Every one is
// defined, and non-zero, on every workload: "op" is the workload's own
// request — an acknowledged sample on the three ingest workloads, a
// completed query on query_mixed (see README.md, "Metric glossary").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"heap_inuse_mb", "MB", "lower", 0.10},
	{"node_mape_pct", "%", "lower", 0.15},
	{"srr_mape_pct", "%", "lower", 0.15},
}

// perLayer lists what the traced run reports: one group per module, then
// set-up and generator diagnostics. None is gated. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"neural.lstm_predictseq_ns", "ns", "lower", 0},
	{"neural.srr_predict_ns", "ns", "lower", 0},
	{"neural.lstm_macs_per_call", "count", "lower", 0},

	{"core.push_ns", "ns", "lower", 0},
	{"core.push_trr_ns", "ns", "lower", 0},
	{"core.push_im_ns", "ns", "lower", 0},
	{"core.push_allocs", "count", "lower", 0},
	{"core.trr_share_pct", "%", "lower", 0},

	{"cluster.send_ns", "ns", "lower", 0},
	{"cluster.send_self_ns", "ns", "lower", 0},
	{"cluster.send_json_ns", "ns", "lower", 0},
	{"cluster.record_ns_per_sample", "ns", "lower", 0},
	{"cluster.send_allocs", "count", "lower", 0},
	{"cluster.query_us", "us", "lower", 0},
	{"cluster.bin_frames", "count", "higher", 0},
	{"cluster.json_frames", "count", "lower", 0},
	{"cluster.batch_mean_size", "count", "higher", 0},
	{"cluster.timed_out", "count", "lower", 0},
	{"cluster.rejected", "count", "lower", 0},

	{"fleet.hop_self_ns", "ns", "lower", 0},
	{"fleet.replicate_extra_ns", "ns", "lower", 0},
	{"fleet.record_ns_per_sample", "ns", "lower", 0},
	{"fleet.routed", "count", "higher", 0},
	{"fleet.replicated", "count", "higher", 0},
	{"fleet.failed_over", "count", "lower", 0},
	{"fleet.route_errors", "count", "lower", 0},
	{"fleet.scatter_gathers", "count", "higher", 0},
	{"fleet.primary_share_max", "1", "lower", 0},
	{"fleet.shard_samples_max_over_mean", "1", "lower", 0},
	{"fleet.query_hop_self_us", "us", "lower", 0},
	{"fleet.scatter_self_us", "us", "lower", 0},

	{"tsdb.ingest_ns", "ns", "lower", 0},
	{"tsdb.ingest_wal_ns", "ns", "lower", 0},
	{"tsdb.wal_bytes_per_sample", "B", "lower", 0},
	{"tsdb.wal_fsyncs", "count", "lower", 0},
	{"tsdb.snapshots", "count", "lower", 0},
	{"tsdb.snapshot_ms", "ms", "lower", 0},
	{"tsdb.open_ms", "ms", "lower", 0},
	{"tsdb.replayed_records", "count", "lower", 0},
	{"tsdb.mem_bytes_per_point", "B", "lower", 0},
	{"tsdb.compression_ratio", "1", "higher", 0},
	{"tsdb.query_warm_us", "us", "lower", 0},
	{"tsdb.query_cold_us", "us", "lower", 0},
	{"tsdb.aggregate_us", "us", "lower", 0},
	{"tsdb.cache_hit_ratio", "1", "higher", 0},
	{"tsdb.points_per_query", "count", "lower", 0},

	{"obs.scrape_ms", "ms", "lower", 0},
	{"obs.scrape_bytes", "B", "lower", 0},
	{"obs.enabled_cpu_delta_us_per_sample", "us", "lower", 0},
	{"obs.selfmeter_tick_mean_us", "us", "lower", 0},

	{"setup.train_s", "s", "lower", 0},
	{"setup.trace_gen_s", "s", "lower", 0},
	{"setup.listen_s", "s", "lower", 0},
	{"setup.preload_s", "s", "lower", 0},

	{"gen.requests", "count", "higher", 0},
	{"gen.samples_acked", "count", "higher", 0},
	{"gen.samples_per_s", "1/s", "higher", 0},
	{"gen.drivers", "count", "higher", 0},
	{"gen.op_p50_us", "us", "lower", 0},
	{"gen.op_tail_pct", "%", "higher", 0},
	{"gen.op_tail_us", "us", "lower", 0},
	{"gen.trr_mape_pct", "%", "lower", 0},
	{"gen.disk_bytes_per_sample", "B", "lower", 0},
	{"gen.recover_ms", "ms", "lower", 0},
	{"gen.heap_end_mb", "MB", "lower", 0},
	{"gen.queries_per_s", "1/s", "higher", 0},
	{"gen.q_node_p50_us", "us", "lower", 0},
	{"gen.q_agg_p50_us", "us", "lower", 0},
	{"gen.q_cold_p50_us", "us", "lower", 0},
	{"gen.writer_rtt_p50_us", "us", "lower", 0},
	{"gen.writer_late_p50_us", "us", "lower", 0},
	{"gen.writer_late_max_us", "us", "lower", 0},
	{"gen.unattributed_pct", "%", "lower", 0},
	{"gen.trace_overhead_pct", "%", "lower", 0},
}

// result is what one workload run measured.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
	// Counts holds the number of samples behind a timing metric.
	Counts map[string]int    `json:"counts,omitempty"`
	Meta   map[string]string `json:"meta"`
	Ops    struct {
		Attempted int64    `json:"attempted"`
		Failed    int64    `json:"failed"`
		Notes     []string `json:"notes,omitempty"`
	} `json:"ops"`
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace,
		Metrics: map[string]float64{}, Counts: map[string]int{}, Meta: map[string]string{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// setTimed records a timing metric with the number of samples behind it.
func (r *result) setTimed(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Counts[name] = n
}

func (r *result) addOps(o *ops) {
	r.Ops.Attempted += o.attempted
	r.Ops.Failed += o.failed
	for _, n := range o.notes {
		if len(r.Ops.Notes) < 8 {
			r.Ops.Notes = append(r.Ops.Notes, n)
		}
	}
}
