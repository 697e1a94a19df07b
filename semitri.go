// Package semitri is a Go implementation of SeMiTri (Yan et al., EDBT 2011):
// a middleware that progressively turns raw GPS streams into structured
// semantic trajectories by annotating stop/move episodes with semantic
// regions (land-use), semantic lines (road segments + transportation modes)
// and semantic points (POI categories inferred with a hidden Markov model).
//
// The package exposes the end-to-end Pipeline used by the command-line
// tools, the examples and the benchmark harness. The individual layers live
// in internal packages: internal/region, internal/line and internal/point
// implement Algorithms 1-3 of the paper, internal/spatial the shared
// spatial-index layer all three annotators query (a bulk-loaded STR R-tree
// and the land-use raster grid, plus per-object locality caches),
// internal/episode the stop/move computation, internal/store the semantic
// trajectory store and internal/workload the synthetic stand-ins for the
// paper's datasets.
//
// There is one ingest path, the StreamProcessor. For a dataset already in
// memory, ProcessRecords sorts it, feeds it through a StreamProcessor and
// closes it:
//
//	city, _ := workload.NewCity(workload.DefaultCityConfig(1, 5000))
//	pipeline, _ := semitri.New(semitri.Sources{
//	    Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
//	}, semitri.DefaultConfig())
//	result, _ := pipeline.ProcessRecords(records)
//	st, _ := pipeline.Store().Structured(result.TrajectoryIDs[0], semitri.InterpretationMerged)
//	fmt.Println(st)
//
// For online ingestion — the middleware setting of the paper — drive the
// StreamProcessor directly. It accepts records one at a time and emits every
// stop/move episode as soon as it is final, with its region and line
// annotations already attached:
//
//	stream := pipeline.NewStream()
//	for record := range source {             // e.g. a GPS feed
//	    events, _ := stream.Add(record)
//	    for _, ev := range events {
//	        if ev.Episode != nil {
//	            fmt.Println("episode closed:", ev.Episode.Kind, ev.Tuple.Annotations)
//	        }
//	    }
//	}
//	result, _ := stream.Close()              // flush open trajectories
package semitri

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/landuse"
	"semitri/internal/line"
	"semitri/internal/obs"
	"semitri/internal/poi"
	"semitri/internal/point"
	"semitri/internal/query"
	"semitri/internal/region"
	"semitri/internal/roadnet"
	"semitri/internal/segment"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// Interpretation names under which the pipeline stores structured semantic
// trajectories in the semantic trajectory store.
const (
	// InterpretationRegion is the record-level region annotation (Alg. 1),
	// with consecutive same-category tuples merged.
	InterpretationRegion = "region"
	// InterpretationRegionEpisodes is the episode-level region annotation.
	InterpretationRegionEpisodes = "region-episodes"
	// InterpretationLine is the per-segment line annotation of move episodes
	// (Alg. 2) with transportation modes.
	InterpretationLine = "line"
	// InterpretationPoint is the stop annotation with POI categories (Alg. 3).
	InterpretationPoint = "point"
	// InterpretationMerged is the episode-level combination of all layers:
	// one tuple per stop/move episode carrying region, line and point
	// annotations (the semantic trajectory of §1.1).
	InterpretationMerged = "merged"
)

// Sources bundles the 3rd-party geographic data the annotation layers use.
// Each source is optional: a missing source simply disables the
// corresponding layer (SeMiTri produces partial annotations, §5.1).
type Sources struct {
	Landuse *landuse.Map
	Roads   *roadnet.Network
	POIs    *poi.Set
}

// Config controls the full pipeline.
type Config struct {
	// Cleaning configures outlier removal and smoothing.
	Cleaning gps.CleaningConfig
	// Segmentation configures raw-trajectory identification.
	Segmentation gps.SegmentationConfig
	// DailySplit additionally splits trajectories at UTC day boundaries
	// (the "daily trajectory" unit of the paper's people experiments).
	DailySplit bool
	// Episode configures stop/move detection.
	Episode episode.Config
	// Line configures the global map-matching layer.
	Line line.Config
	// Point configures the HMM POI-category layer.
	Point point.Config
	// Workers is the number of moving objects ProcessRecords ingests
	// concurrently, each object's records fed in order by one goroutine
	// (values below 2 mean sequential processing).
	Workers int
	// StoreShards is the number of lock stripes of the semantic trajectory
	// store (values below 1 mean store.DefaultShards). More stripes lower
	// contention between concurrently ingested objects; one stripe
	// degenerates to a single global store lock.
	StoreShards int
	// QueryParallelism caps the query engine's workers (parallel join
	// probing, sharded scans, concurrent candidate resolution, group-by
	// folds). Values below 1 mean runtime.GOMAXPROCS(0); 1 forces serial
	// execution. Results are byte-identical at any setting.
	QueryParallelism int
	// Durability configures the write-ahead-log durability subsystem. The
	// zero value keeps the pipeline purely in-memory.
	Durability Durability
}

// Durability configures the pipeline's durability subsystem: the write-ahead
// log (internal/wal) and the tiered segment store (internal/segment) that is
// its checkpoint base. With a Dir set, New recovers the store from the
// directory's binary segments + log tail, attaches the WAL to the store's
// mutation path and (optionally) checkpoints on a schedule. A checkpoint
// freezes only the heap tail written since the last one into an immutable
// segment (cost proportional to the tail, not the store); frozen data is
// served from mmap-backed segment files instead of the Go heap. After an
// ingest, a kill -9 and a restart with the same Dir, the recovered pipeline
// answers queries exactly as the dead one did at its last durable point.
type Durability struct {
	// Dir is the data directory holding the log segments and the checkpoint
	// base. Empty disables durability entirely.
	Dir string
	// Storage selects nothing: segments are the only checkpoint format. It
	// is an inert compile shim for bench/harness.go (which sets "segments"
	// and cannot change in the same PR as the root module) and leaves with
	// the next benchmark-archetype PR. "" and "segments" behave identically;
	// any other value, the removed "json" mode included, is rejected by New.
	Storage string
	// FlushInterval is the group-commit window: the WAL batches frames and
	// pays one write+fsync per interval (default wal.DefaultFlushInterval).
	// It bounds the data-loss window of a hard crash.
	FlushInterval time.Duration
	// Fsync selects the sync policy: "" or "interval" (group commit),
	// "always" (sync every mutation) or "never" (leave syncing to the OS).
	Fsync string
	// CheckpointInterval, when positive, freezes the heap tail and truncates
	// obsolete log segments on this schedule. Checkpoints also run on
	// Pipeline.Close and on demand via Pipeline.Checkpoint.
	CheckpointInterval time.Duration
}

// fsyncPolicy maps the config string onto the WAL policy.
func fsyncPolicy(s string) (wal.FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return wal.FsyncInterval, nil
	case "always":
		return wal.FsyncAlways, nil
	case "never":
		return wal.FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want interval, always or never)", s)
}

// RecoveryStats summarises what New recovered from a durability directory.
type RecoveryStats struct {
	// ColdSegments counts the binary segments whose runs were re-committed
	// into the store's frozen base.
	ColdSegments int
	// Segments and FramesApplied count the replayed log tail.
	Segments      int
	FramesApplied int
	// Torn reports that the log ended in a torn or corrupt frame (the
	// expected shape after a hard crash mid-flush); the committed prefix
	// before it was kept and the tail repaired.
	Torn bool
	// Quarantined counts intact log segments stranded behind a mid-log
	// tear (disk corruption, which a crash cannot produce); recovery
	// renames them aside as *.quarantined instead of replaying or deleting
	// them. Zero for the ordinary torn-final-frame case.
	Quarantined int
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Cleaning:     gps.DefaultCleaningConfig(),
		Segmentation: gps.DefaultSegmentationConfig(),
		DailySplit:   true,
		Episode:      episode.DefaultConfig(),
		Line:         line.DefaultConfig(),
		Point:        point.DefaultConfig(),
		Workers:      4,
	}
}

// VehicleConfig returns a configuration tuned for car/taxi trajectories:
// vehicle episode thresholds and the trivial "car" transportation mode.
func VehicleConfig() Config {
	cfg := DefaultConfig()
	cfg.Episode = episode.VehicleConfig()
	cfg.Line.VehicleMode = line.ModeCar
	return cfg
}

// Pipeline wires preprocessing, episode computation, the three annotation
// layers and the semantic trajectory store (Fig. 2). A Pipeline is safe for
// concurrent use.
type Pipeline struct {
	cfg     Config
	sources Sources

	regionAnnotator *region.Annotator
	lineAnnotator   *line.Annotator
	pointAnnotator  *point.Annotator

	st *store.Store

	// wal is the attached durability log and tier the segment cold tier it
	// checkpoints into (both nil without Config.Durability.Dir); recovery
	// holds what New replayed from its directory.
	wal      *wal.Log
	tier     *segment.Tier
	recovery RecoveryStats

	mu     sync.Mutex
	engine *query.Engine
	live   *query.Live
	closed bool
}

// New builds a pipeline over the given sources. At least one source must be
// provided.
func New(sources Sources, cfg Config) (*Pipeline, error) {
	if sources.Landuse == nil && sources.Roads == nil && sources.POIs == nil {
		return nil, errors.New("semitri: at least one 3rd-party source is required")
	}
	if err := cfg.Episode.Validate(); err != nil {
		return nil, fmt.Errorf("semitri: %w", err)
	}
	p := &Pipeline{cfg: cfg, sources: sources}
	if cfg.Durability.Dir == "" {
		p.st = store.NewSharded(cfg.StoreShards)
	} else {
		// Durable pipeline: recover the store from the data directory's
		// segments + log tail, then attach a fresh WAL so every mutation from
		// here on is logged.
		policy, err := fsyncPolicy(cfg.Durability.Fsync)
		if err != nil {
			return nil, fmt.Errorf("semitri: durability: %w", err)
		}
		if m := cfg.Durability.Storage; m != "" && m != "segments" {
			return nil, fmt.Errorf("semitri: durability: unknown storage %q: segments are the only checkpoint format (the json mode was removed; leave Durability.Storage empty)", m)
		}
		st, tier, rstats, err := segment.Recover(cfg.Durability.Dir, cfg.StoreShards)
		if err != nil {
			return nil, fmt.Errorf("semitri: recover: %w", err)
		}
		l, err := wal.Open(wal.Options{
			Dir:           cfg.Durability.Dir,
			FlushInterval: cfg.Durability.FlushInterval,
			Fsync:         policy,
		})
		if err != nil {
			tier.Close()
			return nil, fmt.Errorf("semitri: %w", err)
		}
		st.AttachLog(l)
		l.StartAutoCheckpoint(func() error { return tier.Checkpoint(l, st) }, cfg.Durability.CheckpointInterval)
		p.st, p.wal, p.tier = st, l, tier
		p.recovery = RecoveryStats{
			ColdSegments:  rstats.Segments,
			Segments:      rstats.WAL.Segments,
			FramesApplied: rstats.WAL.FramesApplied,
			Torn:          rstats.WAL.Torn,
			Quarantined:   rstats.WAL.QuarantinedSegments,
		}
	}
	// fail releases the WAL and segment tier (stopping background
	// goroutines) when a later construction step errors out.
	fail := func(err error) (*Pipeline, error) {
		if p.wal != nil {
			p.st.AttachLog(nil)
			_ = p.wal.Close()
			_ = p.tier.Close()
		}
		return nil, err
	}
	var err error
	if sources.Landuse != nil {
		if p.regionAnnotator, err = region.NewAnnotator(sources.Landuse); err != nil {
			return fail(fmt.Errorf("semitri: region layer: %w", err))
		}
	}
	if sources.Roads != nil {
		if p.lineAnnotator, err = line.NewAnnotator(sources.Roads, cfg.Line); err != nil {
			return fail(fmt.Errorf("semitri: line layer: %w", err))
		}
	}
	if sources.POIs != nil {
		if p.pointAnnotator, err = point.NewAnnotator(sources.POIs, cfg.Point); err != nil {
			return fail(fmt.Errorf("semitri: point layer: %w", err))
		}
	}
	return p, nil
}

// Durable reports whether the pipeline persists its store through a
// write-ahead log (Config.Durability.Dir was set).
func (p *Pipeline) Durable() bool { return p.wal != nil }

// Recovery returns what New recovered from the durability directory (the
// zero value for non-durable pipelines or fresh directories).
func (p *Pipeline) Recovery() RecoveryStats { return p.recovery }

// SyncDurability forces the WAL's pending frames to stable storage: after
// it returns nil, every store mutation committed before the call survives a
// crash. A no-op without durability.
func (p *Pipeline) SyncDurability() error {
	if p.wal == nil {
		return nil
	}
	return p.wal.Sync()
}

// Checkpoint persists the store's committed state into the durability
// directory and truncates the log segments that made obsolete: an incremental
// freeze of the heap tail into a new binary segment (cost proportional to the
// data written since the last checkpoint, not the total). Safe to call while
// ingestion is running. A no-op without durability.
func (p *Pipeline) Checkpoint() error {
	if p.wal == nil {
		return nil
	}
	return p.tier.Checkpoint(p.wal, p.st)
}

// Close shuts the durability subsystem down cleanly: a final checkpoint
// (freeze + log truncation) followed by closing the WAL and the segment
// files. Close any StreamProcessors first so their tail artefacts are in the
// store. Safe to call more than once and a no-op for non-durable pipelines.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	live := p.live
	p.mu.Unlock()
	if live != nil {
		live.Close() // stop the standing-query dispatcher goroutine
	}
	if p.wal == nil {
		return nil
	}
	cpErr := p.Checkpoint()
	p.st.AttachLog(nil)
	if err := p.wal.Close(); err != nil && cpErr == nil {
		cpErr = err
	}
	if err := p.tier.Close(); err != nil && cpErr == nil {
		cpErr = err
	}
	return cpErr
}

// Health reports the pipeline's current degradations as human-readable
// reasons; an empty slice means healthy. It is the probe the serving layer
// wires into GET /healthz (serve.WithHealth): a sticky WAL write/sync error,
// a WAL flusher that has stopped making progress, a failed last
// checkpoint/freeze of this pipeline's own log, or cold reads that skipped
// a segment run that does not decode each contribute a reason.
// Non-durable and closed pipelines are always healthy. Safe to poll.
func (p *Pipeline) Health() []string {
	var reasons []string
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if p.wal != nil && !closed {
		// Err is the sticky I/O error ("wal: ...") or, failing that, the error
		// of this log's last checkpoint/freeze ("checkpoint: ...", cleared by
		// the next one that succeeds).
		if err := p.wal.Err(); err != nil {
			reasons = append(reasons, err.Error())
		}
		// The flusher wakes every FlushInterval even when idle, so a last
		// flush far older than the interval means it has stalled. The floor
		// keeps scheduling jitter on tiny intervals from flapping the probe.
		if last := p.wal.LastFlush(); !last.IsZero() {
			stall := 10 * p.wal.FlushInterval()
			if stall < 2*time.Second {
				stall = 2 * time.Second
			}
			if age := time.Since(last); age > stall {
				reasons = append(reasons, fmt.Sprintf("wal: flusher stalled (last flush %s ago)",
					age.Round(time.Millisecond)))
			}
		}
		if n := p.tier.BadRuns(); n > 0 {
			reasons = append(reasons, fmt.Sprintf("segment: %d cold reads skipped a run that does not decode", n))
		}
	}
	return reasons
}

// Store returns the semantic trajectory store populated by the pipeline.
func (p *Pipeline) Store() *store.Store { return p.st }

// QueryEngine returns the pipeline's query engine, creating it on first use:
// the engine attaches to the store's append path and backfills from its
// current content, so it may be requested before ingestion starts (the
// cheapest point — indexes then build purely incrementally) or afterwards.
// Queries are safe concurrently with live StreamProcessor ingestion; a
// result is always consistent with some store state the ingest actually
// passed through.
func (p *Pipeline) QueryEngine() *query.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engineLocked()
}

// engineLocked creates the engine on first use. Caller holds p.mu. When the
// live dispatcher already exists, the engine's self-attachment is replaced
// by one attaching both, so both keep receiving store notifications.
func (p *Pipeline) engineLocked() *query.Engine {
	if p.engine == nil {
		p.engine = query.NewEngineWith(p.st, query.Options{Parallelism: p.cfg.QueryParallelism})
		if p.live != nil {
			p.st.AttachIndex(p.engine, p.live.Tap())
		}
	}
	return p.engine
}

// Live returns the pipeline's standing-query dispatcher, creating it (and
// the query engine, attached to the store's hook beside it) on first use.
// Like QueryEngine, request it before ingestion starts so standing queries
// observe every event; subscriptions registered mid-ingestion converge as
// tuples are next touched. The dispatcher is shut down by Pipeline.Close.
func (p *Pipeline) Live() *query.Live {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		engine := p.engineLocked()
		p.live = query.NewLive(p.st, 0)
		p.st.AttachIndex(engine, p.live.Tap())
	}
	return p.live
}

// Result summarises a ProcessRecords run or a closed StreamProcessor.
type Result struct {
	// TrajectoryIDs lists the kept raw trajectories ordered by object id,
	// then start time.
	TrajectoryIDs []string
	// Records is the number of records after cleaning.
	Records int
	// Stops and Moves count the detected episodes.
	Stops int
	Moves int
}

// ProcessRecords runs the whole pipeline on a raw GPS dataset held in
// memory: it sorts a copy by object and time, feeds it through a
// StreamProcessor and closes it, so every artefact ends up in the pipeline's
// store exactly as online ingestion of the same records would leave it. The
// sort makes each object's records one contiguous run; Config.Workers
// goroutines each take whole runs, feeding and flushing one object at a time.
func (p *Pipeline) ProcessRecords(records []gps.Record) (*Result, error) {
	sorted := append([]gps.Record(nil), records...)
	gps.SortRecords(sorted)
	var runs [][]gps.Record
	for start, i := 0, 1; i <= len(sorted); i++ {
		if i == len(sorted) || sorted[i].ObjectID != sorted[start].ObjectID {
			runs = append(runs, sorted[start:i])
			start = i
		}
	}
	sp := p.NewStream()
	errs := make([]error, max(p.cfg.Workers, 1))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				for _, r := range runs[i] {
					if _, errs[w] = sp.Add(r); errs[w] != nil {
						return
					}
				}
				_, errs[w] = sp.Flush(runs[i][0].ObjectID)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return sp.Close()
}

// annCursors bundles the per-object spatial locality caches of the three
// annotation layers (last land-use cell, last road-candidate set, last POI
// neighbourhood). Cursors are single-goroutine: the StreamProcessor keeps
// one set per moving object for the object's lifetime.
type annCursors struct {
	region *region.Cursor
	line   *line.Cursor
	point  *point.Cursor
}

// newCursors returns fresh locality cursors for the configured layers.
func (p *Pipeline) newCursors() *annCursors {
	c := &annCursors{}
	if p.regionAnnotator != nil {
		c.region = p.regionAnnotator.NewCursor()
	}
	if p.lineAnnotator != nil {
		c.line = p.lineAnnotator.NewCursor()
	}
	if p.pointAnnotator != nil {
		c.point = p.pointAnnotator.NewCursor()
	}
	return c
}

// episodeAnnotation bundles the artefacts the region and line layers produce
// for one episode: the episode's tuple in the merged interpretation (with
// layer annotations already merged in), its region-episodes tuple and its
// line tuples (one per matched segment run; moves only).
type episodeAnnotation struct {
	merged *core.EpisodeTuple
	region *core.EpisodeTuple
	line   []*core.EpisodeTuple
}

// annotateEpisode runs the region and line layers on one episode. t may be a
// still-open trajectory as long as its records cover the episode's index
// range (the stream calls it with the records seen so far). cur carries the
// object's locality cursors. Episode closes are rare relative to records, so
// both layers are timed on every call rather than sampled.
func (p *Pipeline) annotateEpisode(t *gps.RawTrajectory, ep *episode.Episode, cur *annCursors) (episodeAnnotation, error) {
	out := episodeAnnotation{
		merged: &core.EpisodeTuple{Kind: ep.Kind, TimeIn: ep.Start, TimeOut: ep.End, Episode: ep},
	}
	if p.regionAnnotator != nil {
		start := time.Now()
		epTuples, err := p.regionAnnotator.AnnotateEpisodesCursor([]*episode.Episode{ep}, cur.region)
		if err != nil {
			return out, err
		}
		obs.IngestStageLanduseNs.ObserveNs(time.Since(start).Nanoseconds())
		out.region = epTuples[0]
		out.merged.Annotations.Merge(&out.region.Annotations)
		if out.merged.Place == nil {
			out.merged.Place = out.region.Place
		}
	}
	if p.lineAnnotator != nil && ep.Kind == episode.Move {
		start := time.Now()
		tuples, runs, err := p.lineAnnotator.AnnotateMoveCursor(t, ep, cur.line)
		if err != nil {
			return out, err
		}
		obs.IngestStageMapMatchNs.ObserveNs(time.Since(start).Nanoseconds())
		out.line = tuples
		// Episode-level summary: dominant mode and road of the move.
		if len(runs) > 0 {
			out.merged.Annotations.Add(core.Annotation{
				Key: core.AnnTransportMode, Value: string(dominantMode(runs)), Confidence: 0.9, Source: "line"})
			if out.merged.Place == nil {
				if seg := longestRunPlace(runs, tuples); seg != nil {
					out.merged.Place = seg
				}
			}
		}
	}
	return out, nil
}

// dominantMode returns the transportation mode covering the most records
// across the runs of one move episode.
func dominantMode(runs []line.SegmentRun) line.Mode {
	weights := map[line.Mode]int{}
	for _, r := range runs {
		weights[r.Mode] += r.EndIdx - r.StartIdx + 1
	}
	modes := make([]line.Mode, 0, len(weights))
	for m := range weights {
		modes = append(modes, m)
	}
	sort.Slice(modes, func(i, j int) bool {
		if weights[modes[i]] != weights[modes[j]] {
			return weights[modes[i]] > weights[modes[j]]
		}
		return modes[i] < modes[j]
	})
	if len(modes) == 0 {
		return ""
	}
	return modes[0]
}

// longestRunPlace returns the place of the tuple whose run covers the most
// records, used as the representative road of a move episode.
func longestRunPlace(runs []line.SegmentRun, tuples []*core.EpisodeTuple) *core.Place {
	best := -1
	bestLen := -1
	for i, r := range runs {
		if l := r.EndIdx - r.StartIdx; l > bestLen {
			bestLen = l
			best = i
		}
	}
	if best < 0 || best >= len(tuples) {
		return nil
	}
	return tuples[best].Place
}
