package main

// metricSpec names one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and directions (a test
// keeps the two in step); Moves and On record, for a per-layer metric,
// which end-to-end metric it should move and on which workload.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of perftrack sees, reported by the
// untraced run of every workload. "op" is the workload's primary unit of
// work: one analysis for the batch workloads, one cold job for
// trackd-mixed, whose CPU and allocation are counted per request of the
// whole mix. Latency tails are in every run's detail line and in the
// traced run, not here: on a shared 2-core host their run-to-run spread
// exceeds any bound the benchmark may set.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower},
	{Name: "max_rss_mb", Unit: "MB", Better: lower},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "op_ms.p50", Unit: "ms", Better: lower},
}

const (
	batchBoth = "batch-wrf, batch-evolution"
	wrf       = "batch-wrf"
	evo       = "batch-evolution"
	mixed     = "trackd-mixed"
	all       = "all"
)

// perLayer are reported by the traced run only. Metrics of a layer a
// workload does not reach read 0 on that workload.
var perLayer = []metricSpec{
	// The traced run's own end-to-end numbers, so tracing overhead shows.
	{Name: "traced.op_ms.p50", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: all},
	{Name: "traced.op_ms.tail", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: all},
	{Name: "traced.cpu_ms_per_op", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: all},
	{Name: "traced.alloc_mb_per_op", Unit: "MB", Better: lower, Moves: "alloc_mb_per_op", On: all},
	{Name: "unattributed_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: all},

	{Name: "trace.decode_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: wrf + " (little on batch-evolution)"},
	{Name: "trace.input_mb", Unit: "MB", Better: lower, On: all},
	{Name: "trace.hash_ms", Unit: "ms", Better: lower, Moves: "cached_job_ms.p50", On: mixed},

	{Name: "core.build_frames_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50, cpu_ms_per_op", On: wrf},
	{Name: "core.bursts", Unit: "count", Better: higher, On: batchBoth},
	{Name: "core.quarantined", Unit: "count", Better: lower, On: batchBoth},

	{Name: "cluster.normalize_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: wrf},
	{Name: "cluster.eps_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: wrf},
	{Name: "cluster.dbscan_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: wrf + " (little on batch-evolution)"},
	{Name: "cluster.points", Unit: "count", Better: higher, On: batchBoth},
	{Name: "cluster.clusters", Unit: "count", Better: higher, On: batchBoth},
	{Name: "cluster.clustered_frac", Unit: "ratio", Better: higher, On: batchBoth},
	{Name: "cluster.nn_build_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: batchBoth},
	{Name: "cluster.nn_queries", Unit: "count", Better: lower, Moves: "op_ms.p50", On: batchBoth},

	{Name: "core.displacement_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: batchBoth},
	{Name: "align.star_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: evo},
	{Name: "core.spmd_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: evo},
	{Name: "core.callstack_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: evo},
	{Name: "core.sequence_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: evo},
	{Name: "core.track_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: batchBoth},
	{Name: "core.combine_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: evo},
	{Name: "core.relations", Unit: "count", Better: higher, On: batchBoth},
	{Name: "core.univocal_frac", Unit: "ratio", Better: higher, On: batchBoth},
	{Name: "core.coverage", Unit: "ratio", Better: higher, On: batchBoth},
	{Name: "core.export_ms", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: batchBoth},
	{Name: "core.export_kb", Unit: "KB", Better: lower, On: batchBoth},

	// trackd-mixed request classes, each timed from its due time.
	{Name: "cold_job_ms.p50", Unit: "ms", Better: lower, Moves: "op_ms.p50", On: mixed},
	{Name: "cold_job_ms.tail", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "cached_job_ms.p50", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "cached_job_ms.tail", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "append_ms.p50", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "append_ms.tail", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "window_close_ms.p50", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "window_close_ms.tail", Unit: "ms", Better: lower, Moves: "cpu_ms_per_op", On: mixed},
	{Name: "loadgen.late_ms.p50", Unit: "ms", Better: lower, On: mixed},
	{Name: "loadgen.late_ms.max", Unit: "ms", Better: lower, On: mixed},

	{Name: "service.admit_cold_ms", Unit: "ms", Better: lower, Moves: "cold_job_ms.p50", On: mixed},
	{Name: "service.admit_cached_ms", Unit: "ms", Better: lower, Moves: "cached_job_ms.p50", On: mixed},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: lower, Moves: "cold_job_ms.tail", On: mixed},
	{Name: "service.execute_ms", Unit: "ms", Better: lower, Moves: "cold_job_ms.p50", On: mixed},
	{Name: "service.fetch_ms", Unit: "ms", Better: lower, Moves: "cached_job_ms.p50", On: mixed},
	{Name: "service.cache_hit_frac", Unit: "ratio", Better: higher, Moves: "cached_job_ms.p50", On: mixed},
	{Name: "service.rejected", Unit: "count", Better: lower, Moves: "failed", On: mixed},
	{Name: "service.queue_depth_max", Unit: "count", Better: lower, Moves: "cold_job_ms.tail", On: mixed},
	{Name: "service.workers_busy_frac", Unit: "ratio", Better: lower, Moves: "cold_job_ms.tail", On: mixed},

	{Name: "store.journal_intent_ms", Unit: "ms", Better: lower, Moves: "cold_job_ms.p50", On: mixed},
	{Name: "store.append_ms", Unit: "ms", Better: lower, Moves: "cold_job_ms.p50, window_close_ms.p50", On: mixed},
	{Name: "store.trace_cache_get_ms", Unit: "ms", Better: lower, Moves: "cached_job_ms.p50", On: mixed},
	{Name: "store.trace_cache_hit_frac", Unit: "ratio", Better: higher, Moves: "cached_job_ms.p50", On: mixed},
	{Name: "store.fsyncs_per_op", Unit: "count", Better: lower, Moves: "cold_job_ms.p50", On: mixed},

	{Name: "stream.append_ms", Unit: "ms", Better: lower, Moves: "append_ms.p50", On: mixed},
	{Name: "stream.seal_ms", Unit: "ms", Better: lower, Moves: "window_close_ms.p50", On: mixed},
	{Name: "stream.windows_sealed", Unit: "count", Better: higher, Moves: "window_close_ms.p50", On: mixed},
	{Name: "stream.incremental_frac", Unit: "ratio", Better: higher, Moves: "window_close_ms.p50", On: mixed},
	{Name: "stream.backpressure", Unit: "count", Better: lower, Moves: "failed", On: mixed},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit keeps exactly the metrics of specs from values, in spec units.
// A spec without a value reads 0: the workload does not reach that
// layer. It returns the names of specs that had no value.
func emit(specs []metricSpec, values map[string]float64) (map[string]Metric, []string) {
	out := make(map[string]Metric, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
		}
		out[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	return out, missing
}
