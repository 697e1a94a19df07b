package main

// metric is one named measurement. The end-to-end metrics below are the
// ones BENCHMARK.json lists and every workload reports; the test checks the
// two agree.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base by which it may get worse
}

var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_records_per_s", "records/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
}

// workloadMetrics are end-to-end metrics that exist on some workloads only.
// They are printed, written to the result file and compared by -compare,
// but are not in BENCHMARK.json, whose metrics every workload must report.
var workloadMetrics = []metric{
	{"recovery_s", "s", "lower", 0.10},
	{"disk_bytes_per_record", "bytes", "lower", 0.02},
	{"analytics_batch_s", "s", "lower", 0.10},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"feeder_lateness_ms", "ms", "lower", 0.25},
	{"failed_share", "ratio", "lower", 0},
}

func metricUnit(name string) string {
	for _, list := range [][]metric{endToEnd, workloadMetrics, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// workloadDef is one named set of inputs the benchmark runs: run measures it
// end to end, replay is its layer replay.
type workloadDef struct {
	name   string
	why    string
	run    func(*env) (Report, error)
	replay func(*env) (Report, error)
}

var workloads = []workloadDef{
	{"people_ingest", "per-record layers dominate: clean, segment, track and land-use lookup on a bare in-memory store",
		peopleIngest, peopleIngestReplay},
	{"fleet_durable", "per-episode and per-mutation layers dominate: map matching, HMM, store, indexes, WAL and segment freezes, then crash recovery",
		fleetDurable, fleetDurableReplay},
	{"serve_mixed", "the HTTP front door under read-beside-write: serve and query lookup dominate while the store and indexes are being written",
		serveMixed, serveMixedReplay},
	{"cold_analytics", "segment cold decode and the planner, join and aggregate executor do all the work: scans, top-K and co-location joins over a reopened store",
		coldAnalytics, coldAnalyticsReplay},
}

// perLayer are the metrics of single layers (layer = module name) the
// replay reports, on every workload. They have no bound.
var perLayer = []metric{
	{Name: "gps.clean_ns_per_record", Unit: "ns"},
	{Name: "gps.segment_ns_per_record", Unit: "ns"},
	{Name: "gps.records_in", Unit: "count"},
	{Name: "gps.records_out", Unit: "count"},
	{Name: "gps.records_dropped", Unit: "count"},
	{Name: "episode.track_ns_per_record", Unit: "ns"},
	{Name: "episode.episodes_out", Unit: "count"},
	{Name: "region.annotate_ns_per_record", Unit: "ns"},
	{Name: "region.cursor_hit_ratio", Unit: "ratio"},
	{Name: "line.match_ns_per_point", Unit: "ns"},
	{Name: "line.candidates_per_point", Unit: "count"},
	{Name: "line.cursor_hit_ratio", Unit: "ratio"},
	{Name: "point.annotate_ns_per_stop", Unit: "ns"},
	{Name: "point.candidates_per_stop", Unit: "count"},
	{Name: "store.apply_ns_per_mutation", Unit: "ns"},
	{Name: "store.mutations_records", Unit: "count"},
	{Name: "store.mutations_trajectories", Unit: "count"},
	{Name: "store.mutations_episodes", Unit: "count"},
	{Name: "store.mutations_structured", Unit: "count"},
	{Name: "store.mutations_annotations", Unit: "count"},
	{Name: "query.index_ns_per_tuple", Unit: "ns"},
	{Name: "query.index_entries", Unit: "count"},
	{Name: "wal.log_ns_per_mutation", Unit: "ns"},
	{Name: "wal.bytes_per_record", Unit: "bytes"},
	{Name: "wal.fsyncs", Unit: "count"},
	{Name: "wal.sync_barrier_ms", Unit: "ms"},
	{Name: "wal.replay_ns_per_frame", Unit: "ns"},
	{Name: "segment.freeze_ms", Unit: "ms"},
	{Name: "segment.bytes_per_record", Unit: "bytes"},
	{Name: "segment.open_ms", Unit: "ms"},
	{Name: "segment.cold_scan_ns_per_tuple", Unit: "ns"},
	{Name: "segment.pruned_share", Unit: "ratio"},
	{Name: "query.execute_ns_lookup", Unit: "ns"},
	{Name: "query.execute_ns_ann_window", Unit: "ns"},
	{Name: "query.execute_ns_spatial", Unit: "ns"},
	{Name: "query.execute_ns_scan", Unit: "ns"},
	{Name: "query.execute_ns_topk", Unit: "ns"},
	{Name: "query.execute_ns_join", Unit: "ns"},
	{Name: "query.rows_examined_per_returned", Unit: "ratio"},
	{Name: "query.allocs_per_query", Unit: "count"},
	{Name: "lang.parse_ns", Unit: "ns"},
	{Name: "serve.overhead_ns", Unit: "ns"},
	{Name: "serve.bytes_per_row", Unit: "bytes"},
	{Name: "serve.p99_ms", Unit: "ms"},
	{Name: "serve.sse_delivery_lag_ms", Unit: "ms"},
	{Name: "obs.bus_drops", Unit: "count"},
	{Name: "obs.bus_max_lag", Unit: "count"},
	{Name: "semitri.ingest_wall_ns_per_record", Unit: "ns"},
	{Name: "semitri.gc_cpu_ns_per_record", Unit: "ns"},
	{Name: "semitri.share_gps.clean", Unit: "ratio"},
	{Name: "semitri.share_gps.segment", Unit: "ratio"},
	{Name: "semitri.share_episode.track", Unit: "ratio"},
	{Name: "semitri.share_region.annotate", Unit: "ratio"},
	{Name: "semitri.share_line.match", Unit: "ratio"},
	{Name: "semitri.share_point.annotate", Unit: "ratio"},
	{Name: "semitri.share_store.apply", Unit: "ratio"},
	{Name: "semitri.share_query.index", Unit: "ratio"},
	{Name: "semitri.share_wal.log", Unit: "ratio"},
	{Name: "semitri.share_segment.freeze", Unit: "ratio"},
	{Name: "semitri.ingest_budget_coverage", Unit: "ratio"},
	{Name: "semitri.wiring_ns_per_record", Unit: "ns"},
}
