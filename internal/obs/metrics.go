package obs

import (
	"strings"
	"time"
)

// The process-wide metric catalogue. Every subsystem records into these
// package-level vars; keeping the catalogue in one file keeps naming
// consistent and makes the README table and the smoke test's assertions easy
// to audit. Label "vecs" are deliberately small and fixed — one registered
// metric per label value — so the record path never touches a map.

// Ingest (stream.go). The stage family carries the per-record stages
// (clean, segment, track — sampled, see objectStream.sampleTimed) and the
// per-episode and per-trajectory stages of the paper's Fig. 17, which are
// rare enough to be timed on every call.
const ingestStageHelp = "Latency of each streaming ingest stage, in nanoseconds (per-record stages sampled)."

var (
	IngestRecords = NewCounter("semitri_ingest_records_total",
		"GPS records accepted by the streaming pipeline.")
	IngestLateDropped = NewCounter("semitri_ingest_late_dropped_total",
		"GPS records dropped for arriving older than their object's last accepted record.")
	IngestTrajectories = NewCounter("semitri_ingest_trajectories_total",
		"Trajectories closed and fully annotated by the streaming pipeline.")
	IngestStageCleanNs        = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "clean")
	IngestStageSegmentNs      = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "segment")
	IngestStageTrackNs        = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "track")
	IngestStageStoreEpisodeNs = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "store_episode")
	IngestStageMapMatchNs     = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "map_match")
	IngestStageStoreMatchNs   = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "store_match")
	IngestStageLanduseNs      = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "landuse")
	IngestStagePOINs          = NewHistogram("semitri_ingest_stage_ns", ingestStageHelp, nil, "stage", "poi")
)

// StageLatency is one row of the Fig. 17 breakdown: a pipeline stage, the
// number of timed calls behind it and its estimated cost per trajectory,
// averaged over Trajectories closed trajectories (the same on every row).
type StageLatency struct {
	Stage         string
	Count         int64
	Trajectories  int64
	PerTrajectory time.Duration
}

// fig17Stages maps the paper's Fig. 17 row labels onto the stage histograms.
// "compute episode" is the per-record tracker step; it is sampled, so its
// Count is about records/64 and its total is the sampled mean times the
// records ingested. The tracker's end-of-trajectory Finish is not part of it.
var fig17Stages = []struct {
	label, stage string
	sampled      bool
}{
	{"compute episode", "track", true},
	{"store episode", "store_episode", false},
	{"map match", "map_match", false},
	{"store match result", "store_match", false},
	{"landuse (join)", "landuse", false},
	{"poi annotation", "poi", false},
}

// IngestStageLatencies turns two Registry.Numeric snapshots taken around an
// ingest run into the Fig. 17 per-stage latency breakdown, averaged over the
// trajectories closed in between.
func IngestStageLatencies(before, after map[string]float64) []StageLatency {
	delta := func(id string) float64 { return after[id] - before[id] }
	records := delta("semitri_ingest_records_total")
	trajectories := delta("semitri_ingest_trajectories_total")
	out := make([]StageLatency, 0, len(fig17Stages))
	for _, s := range fig17Stages {
		count := delta(`semitri_ingest_stage_ns_count{stage="` + s.stage + `"}`)
		total := delta(`semitri_ingest_stage_ns_sum{stage="` + s.stage + `"}`)
		if s.sampled && count > 0 {
			total *= records / count
		}
		row := StageLatency{Stage: s.label, Count: int64(count), Trajectories: int64(trajectories)}
		if trajectories > 0 {
			row.PerTrajectory = time.Duration(total / trajectories)
		}
		out = append(out, row)
	}
	return out
}

// Store (internal/store).
var (
	StoreMutRecords = NewCounter("semitri_store_mutations_total",
		"Committed store mutations by table.", "table", "records")
	StoreMutEpisodes = NewCounter("semitri_store_mutations_total",
		"Committed store mutations by table.", "table", "episodes")
	StoreMutTrajectories = NewCounter("semitri_store_mutations_total",
		"Committed store mutations by table.", "table", "trajectories")
	StoreMutStructured = NewCounter("semitri_store_mutations_total",
		"Committed store mutations by table.", "table", "structured")
	StoreMutAnnotations = NewCounter("semitri_store_mutations_total",
		"Committed store mutations by table.", "table", "annotations")
	StoreStripeWaitNs = NewHistogram("semitri_store_stripe_wait_ns",
		"Contended stripe-lock acquisition wait, in nanoseconds (uncontended grabs are not timed).", nil)
)

// Query engine (internal/query). Per-path counters are indexed by the
// planner's path rank via QueryByPath.
var (
	QueryPathTrajectory = NewCounter("semitri_query_total",
		"Queries executed by chosen access path.", "path", "trajectory")
	QueryPathAnnotation = NewCounter("semitri_query_total",
		"Queries executed by chosen access path.", "path", "annotation")
	QueryPathObjectTime = NewCounter("semitri_query_total",
		"Queries executed by chosen access path.", "path", "object-time")
	QueryPathSpatial = NewCounter("semitri_query_total",
		"Queries executed by chosen access path.", "path", "spatial")
	QueryPathScan = NewCounter("semitri_query_total",
		"Queries executed by chosen access path.", "path", "scan")
	// QueryByPath is indexed by the planner's path rank (same order as the
	// path constants' pathRank).
	QueryByPath = [...]*Counter{
		QueryPathTrajectory, QueryPathAnnotation, QueryPathObjectTime,
		QueryPathSpatial, QueryPathScan,
	}
	QueryPlanNs = NewHistogram("semitri_query_plan_ns",
		"Query planning latency, in nanoseconds.", nil)
	QueryExecNs = NewHistogram("semitri_query_exec_ns",
		"Query execution latency, in nanoseconds.", nil)
	QueryCandidates = NewCounter("semitri_query_candidates_total",
		"Index candidates examined by query execution.")
	QueryReturned = NewCounter("semitri_query_returned_total",
		"Matches returned by query execution.")
	JoinQueries = NewCounter("semitri_join_total",
		"Relational joins executed.")
	JoinProbes = NewCounter("semitri_join_probes_total",
		"Per-row probe queries issued by join execution.")
	JoinWorkerProbes = NewHistogram("semitri_join_worker_probes",
		"Probe fan-out per join worker (probes handled by one worker in one join).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536})
)

// WAL (internal/wal).
var (
	WALFrames = NewCounter("semitri_wal_frames_total",
		"Mutation frames appended to the write-ahead log.")
	WALBytes = NewCounter("semitri_wal_bytes_total",
		"Bytes written to write-ahead log segments.")
	WALFsyncs = NewCounter("semitri_wal_fsync_total",
		"fsync/fdatasync calls issued by the write-ahead log.")
	WALFlushNs = NewHistogram("semitri_wal_flush_ns",
		"Group-commit flush latency, in nanoseconds.", nil)
	WALCheckpointNs = NewHistogram("semitri_wal_checkpoint_ns",
		"Checkpoint duration, in nanoseconds.", nil)
	// WALLastFlushUnixNano and the error gauges carry health state: they
	// record even when instrumentation is disabled (gauges always do).
	WALLastFlushUnixNano = NewGauge("semitri_wal_last_flush_unix_nano",
		"Wall-clock time of the last successful WAL flush, in Unix nanoseconds.")
	WALErrored = NewGauge("semitri_wal_errored",
		"1 when the write-ahead log has a sticky write/sync error, else 0.")
	CheckpointErrored = NewGauge("semitri_checkpoint_errored",
		"1 when the last checkpoint or freeze returned an error, else 0.")
)

// Segment tier (internal/segment).
var (
	SegmentFreezes = NewCounter("semitri_segment_freezes_total",
		"Heap tails frozen into immutable segments.")
	SegmentColdReads = NewCounter("semitri_segment_cold_reads_total",
		"Data frames (one run each) decoded from frozen segments (cold reads).")
	SegmentColdBytes = NewCounter("semitri_segment_cold_bytes_total",
		"Bytes of the data frames decoded from frozen segments (mmap-touch proxy).")
	SegmentColumnReads = NewCounter("semitri_segment_column_reads_total",
		"Column frames read from frozen segments by projected scans.")
	// Per-rule segment prune counters, indexed by the rule names the pruner
	// reports in traces.
	SegmentPruned = map[string]*Counter{}
)

// Live observability pipeline (internal/obs event bus + internal/query
// standing queries). The two bus roles each get one metric set: "live" is
// the store tuple-event bus feeding standing queries and /subscribe, while
// "metrics" is the sampled-tick bus feeding /metrics/stream.
var (
	LiveBusMetrics    = NewBusMetrics("live")
	MetricsBusMetrics = NewBusMetrics("metrics")

	LiveStandingQueries = NewGauge("semitri_live_standing_queries",
		"Standing queries currently registered with the live dispatcher.")
	LiveEventsEvaluated = NewCounter("semitri_live_events_evaluated_total",
		"Tuple events evaluated against standing-query predicates.")
	LiveMatches = NewCounter("semitri_live_matches_total",
		"Standing-query match notifications produced by the live dispatcher.")
	LiveDispatchNs = NewHistogram("semitri_live_dispatch_ns",
		"Per-event dispatch latency across all standing queries, in nanoseconds.", nil)
)

// Health (served by /healthz; mirrored here so dashboards and scrapers can
// alert without parsing the JSON body). The gauge records even when
// instrumentation is disabled, like the other health-state gauges.
var (
	HealthDegraded = NewGauge("semitri_health_degraded",
		"1 when /healthz reports the pipeline degraded, else 0.")
	HealthReasonWALError = NewCounter("semitri_health_reasons_total",
		"Degraded /healthz evaluations by reason class.", "reason", "wal-error")
	HealthReasonWALStall = NewCounter("semitri_health_reasons_total",
		"Degraded /healthz evaluations by reason class.", "reason", "wal-stall")
	HealthReasonCheckpoint = NewCounter("semitri_health_reasons_total",
		"Degraded /healthz evaluations by reason class.", "reason", "checkpoint")
	HealthReasonOther = NewCounter("semitri_health_reasons_total",
		"Degraded /healthz evaluations by reason class.", "reason", "other")
)

// HealthReasonCounter maps a /healthz degraded-reason string onto its class
// counter, matching the reason formats Pipeline.Health emits.
func HealthReasonCounter(reason string) *Counter {
	switch {
	case strings.Contains(reason, "stalled"):
		return HealthReasonWALStall
	case strings.HasPrefix(reason, "wal:"):
		return HealthReasonWALError
	case strings.HasPrefix(reason, "checkpoint:"):
		return HealthReasonCheckpoint
	default:
		return HealthReasonOther
	}
}

// PruneRules lists the rules the query engine's segment check can refute a
// segment's summary on, in the order they are evaluated. Exported so traces
// and metrics agree on names.
var PruneRules = []string{"interpretation", "kind", "time-span"}

func init() {
	for _, rule := range PruneRules {
		SegmentPruned[rule] = NewCounter("semitri_segment_pruned_total",
			"Whole segments pruned off their summaries, by refuting rule.",
			"rule", rule)
	}
}

// SegmentPrunedBy bumps the prune counter for rule, tolerating unknown names.
func SegmentPrunedBy(rule string) {
	if c, ok := SegmentPruned[rule]; ok {
		c.Inc()
	}
}
