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
	"semitri/internal/obs"
)

// StreamProcessor is the pipeline's one ingest path: it accepts raw GPS
// records one at a time (or in micro-batches) per moving object and runs the
// chain of Fig. 2 — cleaning, trajectory identification, stop/move
// computation and the three annotation layers — incrementally.
// Episodes are emitted (and their region/line annotations computed and
// appended to the store) as soon as they are final; the point layer, whose
// HMM decodes a trajectory's whole stop sequence jointly, runs when the
// trajectory closes, as does the record-level region interpretation.
//
// Parity guarantee: ProcessRecords is a sort plus this path, so feeding a
// record stream through Add and then calling Close leaves the store with
// exactly the trajectories, episodes and structured interpretations of one
// ProcessRecords call on the same records — and of the per-layer batch
// kernels (gps.Clean, gps.IdentifyTrajectories, episode.Detect and the
// annotators' whole-trajectory entry points) composed over them, which the
// parity tests use as the oracle. This assumes each object's records arrive
// in time order; late records are dropped (and counted in
// semitri_ingest_late_dropped_total), where ProcessRecords' sort would have
// moved them.
//
// # Freshness
//
// Cleaned records reach the store in runs of up to 64 per object (one
// stripe lock and one mutation-log entry per run), not one at a time. A
// record accepted by the cleaner is therefore stored at most 63 records of
// its object late, or sooner, at the object's next trajectory commit or
// close, Flush or Close; the cleaning window adds its SmoothingWindow
// records of delay before that. A trajectory's range is stored only after
// the records it covers.
//
// # Concurrency
//
// A StreamProcessor is safe for concurrent use and is internally sharded by
// object: every moving object owns its full streaming state (cleaner,
// segmenter, episode tracker, staged artefacts) behind its own lock, and the
// processor-wide lock only guards the object registry and the running
// Result. Add calls for different objects therefore run concurrently
// end-to-end — clean → segment → episode → annotate → append — contending
// only on the store's lock stripes. Calls for the same object serialise on
// that object's lock; feed one object's records from a single goroutine (or
// hand one sequence of records to FanIn, which shards it by object) to keep
// their order deterministic. Use one StreamProcessor (or one ProcessRecords run) per
// Pipeline store lifetime to keep trajectory ids unique: a later stream that
// reaches an id the store already holds replaces that trajectory's episodes
// and interpretations.
type StreamProcessor struct {
	p *Pipeline

	// reg guards the object registry and the closed flag; per-object state
	// is guarded by each objectStream's own mutex.
	reg     sync.RWMutex
	objects map[string]*objectStream
	closed  bool

	// Running totals shared by all objects. The counters are atomics so the
	// per-record hot path never takes a processor-wide lock; the ids of the
	// closed trajectories live with their object (objectStream.closedIDs).
	records atomic.Int64
	stops   atomic.Int64
	moves   atomic.Int64
}

// runRecords is how many cleaned records of one object are staged before
// they go to the store as one run, which a durable store logs as one frame.
const runRecords = 64

// objectStream is the per-object streaming state: the object's own cleaning
// window and segmenter, its episode tracker (reset per trajectory), the
// records staged for the store and the artefacts staged until the
// trajectory is committed (guaranteed to be kept). All fields are guarded
// by mu; the cleaner and segmenter see exactly one object each. Its buffers
// live as long as the object does, so the steady-state record path
// allocates nothing.
type objectStream struct {
	mu sync.Mutex

	objectID  string
	cleaner   *gps.StreamCleaner
	segmenter *gps.StreamSegmenter
	tracker   *episode.Tracker // nil until the object's first trajectory opens
	id        string           // trajectory id, "" until committed
	closed    bool             // set by Close: the object accepts no further records
	closedIDs []string         // ids of the object's kept trajectories, in start-time order
	// segStart is the position of the open segment's first record in the
	// object's record run: the segment's records are exactly the run's
	// positions from there, so the stored trajectory is that range.
	segStart int

	// run holds cleaned records not yet in the store (at most runRecords),
	// and next is the position in the object's record run that the next
	// cleaned record will take, counted from the store's length when the
	// object was first seen.
	run  []gps.Record
	next int

	// cur holds the object's spatial locality cursors (last land-use cell,
	// last road candidates, last POI neighbourhood). The per-object state of
	// the streaming engine makes them lock-free, and they survive trajectory
	// resets: spatial locality belongs to the object, not the trajectory.
	cur *annCursors

	// Closed episodes of the open trajectory, kept for the point layer at
	// close time (each episode's position here is also its merged-tuple
	// index in the store, the append order).
	episodes []*episode.Episode

	// Artefacts staged while the trajectory may still be dropped: the
	// closed episodes with their annotations (replayed through the normal
	// store-append path at commit time) and the held-back events.
	staged       []stagedEpisode
	stagedEvents []StreamEvent

	// sample drives the 1-in-64 stage-latency sampling of the record hot
	// path (see sampleTimed). Guarded by mu like the rest of the state, so
	// the counter costs one non-atomic increment per record.
	sample uint32
}

// sampleTimed reports whether this record's per-record stages (clean,
// segment, track) should be timed: every 64th record of the object, and only
// while instrumentation is enabled. Call it once per record and pass the
// decision down. The stage histograms keep their shape (they see an unbiased
// sample) while the hot path pays time.Now pairs only on sampled records:
// clock reads are ~70ns on cloud VMs without a fast vDSO path, so sampling
// sparser than the histograms need keeps the obs overhead budget
// (< 3%, gated by BenchmarkGateObsOverhead) safe. Caller holds mu.
func (os *objectStream) sampleTimed() bool {
	os.sample++
	return os.sample&63 == 0 && obs.Enabled()
}

type stagedEpisode struct {
	ep  *episode.Episode
	ann episodeAnnotation
}

// StreamEvent reports something that became final inside Add, Flush or
// Close: an episode closing and/or a trajectory closing.
type StreamEvent struct {
	ObjectID string
	// TrajectoryID is the id of the trajectory the event belongs to.
	// Episode events are only delivered once their trajectory is committed
	// (guaranteed to be kept), so the id is always set; episodes of
	// segments that end up dropped as too short produce no events at all.
	TrajectoryID string
	// Episode is the episode that just became final (nil for
	// trajectory-close events).
	Episode *episode.Episode
	// Tuple is the episode's merged-interpretation tuple as of the
	// episode's close: the region/line annotations. It never changes: the
	// point layer's annotations, merged when the trajectory closes, land on
	// a new stored tuple (read it back with Store().Structured), not on this
	// one.
	Tuple *core.EpisodeTuple
	// TrajectoryClosed reports that the trajectory TrajectoryID closed and
	// every interpretation (point layer included) is now stored.
	TrajectoryClosed bool
}

var errStreamClosed = errors.New("semitri: stream already closed")

// NewStream returns a streaming processor over the pipeline's sources,
// configuration and store.
func (p *Pipeline) NewStream() *StreamProcessor {
	return &StreamProcessor{
		p:       p,
		objects: map[string]*objectStream{},
	}
}

// object returns the stream state for objectID, creating it on first use.
// The fast path holds only a read lock on the registry.
func (sp *StreamProcessor) object(objectID string) (*objectStream, error) {
	sp.reg.RLock()
	if sp.closed {
		sp.reg.RUnlock()
		return nil, errStreamClosed
	}
	os := sp.objects[objectID]
	sp.reg.RUnlock()
	if os != nil {
		return os, nil
	}
	sp.reg.Lock()
	defer sp.reg.Unlock()
	if sp.closed {
		return nil, errStreamClosed
	}
	if os = sp.objects[objectID]; os == nil {
		os = &objectStream{
			objectID:  objectID,
			cleaner:   gps.NewStreamCleaner(sp.p.cfg.Cleaning),
			segmenter: gps.NewStreamSegmenter(sp.p.cfg.Segmentation, sp.p.cfg.DailySplit),
			cur:       sp.p.newCursors(),
			run:       make([]gps.Record, 0, runRecords),
			next:      sp.p.st.RecordLen(objectID),
		}
		sp.objects[objectID] = os
	}
	return os, nil
}

// Add ingests one raw GPS record and returns the events it triggered. The
// cleaning window delays a record's effects by SmoothingWindow records of
// its object. Adds for different objects run concurrently; adds for the same
// object serialise on the object's lock.
func (sp *StreamProcessor) Add(r gps.Record) ([]StreamEvent, error) {
	os, err := sp.object(r.ObjectID)
	if err != nil {
		return nil, err
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	if os.closed {
		return nil, errStreamClosed
	}
	var t0 time.Time
	timed := os.sampleTimed()
	if timed {
		t0 = time.Now()
	}
	cleaned := os.cleaner.Add(r)
	if timed {
		obs.IngestStageCleanNs.ObserveNs(time.Since(t0).Nanoseconds())
	}
	var events []StreamEvent
	for _, cr := range cleaned {
		evs, err := sp.ingestCleaned(os, cr, timed)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// AddBatch ingests a micro-batch of records in order.
func (sp *StreamProcessor) AddBatch(records []gps.Record) ([]StreamEvent, error) {
	var events []StreamEvent
	for _, r := range records {
		evs, err := sp.Add(r)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// ingestCleaned stages one finalised cleaned record for the store (putting
// the object's run when it is full) and routes it through segmentation,
// episode tracking and annotation; timed is the record's sampling decision
// (see sampleTimed). Caller holds os.mu.
func (sp *StreamProcessor) ingestCleaned(os *objectStream, cr gps.Record, timed bool) ([]StreamEvent, error) {
	pos := os.next
	os.next++
	os.run = append(os.run, cr)
	if len(os.run) == runRecords {
		if err := sp.putRun(os); err != nil {
			return nil, err
		}
	}
	sp.records.Add(1)
	obs.IngestRecords.Inc()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	ev := os.segmenter.Add(cr)
	if timed {
		obs.IngestStageSegmentNs.ObserveNs(time.Since(t0).Nanoseconds())
	}
	var events []StreamEvent
	if ev.Closed != nil {
		evs, err := sp.closeTrajectory(os, ev.Closed)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	} else if ev.ClosedDropped {
		os.reset()
	}
	if ev.Opened {
		if os.tracker == nil {
			tk, err := episode.NewTracker("", os.objectID, sp.p.cfg.Episode)
			if err != nil {
				return events, fmt.Errorf("semitri: %w", err)
			}
			os.tracker = tk
		} else {
			os.tracker.Reset("", os.objectID)
		}
		os.segStart = pos
	}
	if timed {
		t0 = time.Now()
	}
	eps, err := os.tracker.Add(cr)
	if err != nil {
		return events, fmt.Errorf("semitri: %w", err)
	}
	if timed {
		obs.IngestStageTrackNs.ObserveNs(time.Since(t0).Nanoseconds())
	}
	for _, closedEp := range eps {
		openRecords, _, _ := os.segmenter.OpenRecords(os.objectID)
		e, err := sp.closeEpisodeRecords(os, closedEp, openRecords)
		if err != nil {
			return events, err
		}
		if os.id == "" {
			// Uncommitted: the segment may still be dropped, in which case
			// this episode must never have been announced. Hold the event
			// back until commit.
			os.stagedEvents = append(os.stagedEvents, e)
		} else {
			events = append(events, e)
		}
	}
	if ev.Committed {
		flushed, err := sp.commit(os, ev.SegmentID)
		events = append(events, flushed...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// putRun stores the object's staged records as one run and checks that they
// landed where the stream predicted: trajectory ranges are computed from
// that prediction, so a run displaced by another writer of the object is an
// error rather than a wrong range. Caller holds os.mu.
func (sp *StreamProcessor) putRun(os *objectStream) error {
	if len(os.run) == 0 {
		return nil
	}
	want := os.next - len(os.run)
	got := sp.p.st.PutRecords(os.run)
	os.run = os.run[:0]
	if got != want {
		return fmt.Errorf("semitri: object %s: records stored from position %d, want %d (another writer appended to the object)",
			os.objectID, got, want)
	}
	return nil
}

// closeEpisodeRecords annotates a final episode with the region and line
// layers and appends the results to the store (or stages them when the
// trajectory is not yet committed). records must cover the episode's index
// range: the open segment's records so far, or the full trajectory at close
// time. Caller holds os.mu.
func (sp *StreamProcessor) closeEpisodeRecords(os *objectStream, ep *episode.Episode, records []gps.Record) (StreamEvent, error) {
	view := &gps.RawTrajectory{ID: os.id, ObjectID: os.objectID, Records: records}
	ann, err := sp.p.annotateEpisode(view, ep, os.cur)
	if err != nil {
		return StreamEvent{}, fmt.Errorf("semitri: %w", err)
	}
	os.episodes = append(os.episodes, ep)
	if os.id == "" {
		// Not committed yet: stage until the trajectory is guaranteed kept.
		os.staged = append(os.staged, stagedEpisode{ep: ep, ann: ann})
	} else {
		if err := sp.appendEpisodeArtifacts(os, ep, ann); err != nil {
			return StreamEvent{}, err
		}
	}
	return StreamEvent{ObjectID: os.objectID, TrajectoryID: os.id, Episode: ep, Tuple: ann.merged}, nil
}

// appendEpisodeArtifacts writes one closed episode's artefacts to the store.
func (sp *StreamProcessor) appendEpisodeArtifacts(os *objectStream, ep *episode.Episode, ann episodeAnnotation) error {
	start := time.Now()
	if err := sp.p.st.AppendEpisodes(os.id, ep); err != nil {
		return err
	}
	obs.IngestStageStoreEpisodeNs.ObserveNs(time.Since(start).Nanoseconds())
	if err := sp.p.st.AppendStructuredTuples(os.id, os.objectID, InterpretationMerged, ann.merged); err != nil {
		return err
	}
	if ann.region != nil {
		if err := sp.p.st.AppendStructuredTuples(os.id, os.objectID, InterpretationRegionEpisodes, ann.region); err != nil {
			return err
		}
	}
	if ep.Kind == episode.Move && sp.p.lineAnnotator != nil {
		// Appending zero tuples still creates the interpretation: it is
		// stored whenever move episodes exist, matched or not.
		start = time.Now()
		if err := sp.p.st.AppendStructuredTuples(os.id, os.objectID, InterpretationLine, ann.line...); err != nil {
			return err
		}
		obs.IngestStageStoreMatchNs.ObserveNs(time.Since(start).Nanoseconds())
	}
	return nil
}

// commit fires when the open trajectory reaches MinRecords: the trajectory
// id is now final, the staged artefacts catch up into the store and the
// held-back episode events are released (with the id filled in). Caller
// holds os.mu.
func (sp *StreamProcessor) commit(os *objectStream, id string) ([]StreamEvent, error) {
	os.id = id
	os.tracker.SetIDs(id, os.objectID)
	released := os.stagedEvents
	os.stagedEvents = nil
	for i := range released {
		released[i].TrajectoryID = id
	}
	records, _, _ := os.segmenter.OpenRecords(os.objectID)
	if err := sp.putRun(os); err != nil {
		return released, err
	}
	if err := sp.p.st.PutTrajectory(id, os.objectID, os.segStart, len(records)); err != nil {
		return released, err
	}
	// An id the store already holds (the same records ingested again, e.g. a
	// rerun over a recovered data dir) is replaced, not appended to: the
	// appends below, and the tuple positions the point layer merges into,
	// assume the trajectory starts empty.
	if stale := sp.p.st.Interpretations(id); len(stale) > 0 {
		if err := sp.p.st.PutEpisodes(id, nil); err != nil {
			return released, err
		}
		for _, interp := range stale {
			if err := sp.p.st.PutStructured(&core.StructuredTrajectory{ID: id, ObjectID: os.objectID, Interpretation: interp}); err != nil {
				return released, err
			}
		}
	}
	// Replay the staged episodes through the normal append path, so the
	// pre-commit and post-commit writes stay a single code path.
	for _, s := range os.staged {
		s.ep.TrajectoryID = id
		if err := sp.appendEpisodeArtifacts(os, s.ep, s.ann); err != nil {
			return released, err
		}
	}
	os.staged = nil
	return released, nil
}

// closeTrajectory finishes a kept trajectory: drains the tracker's tail
// episodes, runs the record-level region interpretation and the point layer,
// and finalises the stored trajectory. It then hands t's record buffer back
// to the segmenter for the object's next segment. Caller holds os.mu.
func (sp *StreamProcessor) closeTrajectory(os *objectStream, t *gps.RawTrajectory) ([]StreamEvent, error) {
	defer func() {
		os.segmenter.Recycle(t)
		os.reset()
	}()
	if os.tracker == nil {
		return nil, fmt.Errorf("semitri: trajectory %s closed without a tracker", t.ID)
	}
	os.id = t.ID // committed by construction: the segmenter kept it
	tail, err := os.tracker.Finish()
	if err != nil {
		return nil, fmt.Errorf("semitri: %w", err)
	}
	var events []StreamEvent
	for _, ep := range tail {
		ep.TrajectoryID = t.ID
		e, err := sp.closeEpisodeRecords(os, ep, t.Records)
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
	// The segmenter commits any kept trajectory before closing it, so the
	// staged buffers were flushed in commit(); episodes closed after that
	// were appended directly.
	if len(os.staged) > 0 {
		return events, fmt.Errorf("semitri: trajectory %s closed with staged episodes", t.ID)
	}
	// Record-level region interpretation over the full trajectory.
	if sp.p.regionAnnotator != nil {
		start := time.Now()
		recordLevel, err := sp.p.regionAnnotator.AnnotateTrajectoryCursor(t, os.cur.region)
		if err != nil {
			return events, fmt.Errorf("semitri: %w", err)
		}
		regionMerged := recordLevel.MergeConsecutive(core.AnnLanduse)
		obs.IngestStageLanduseNs.ObserveNs(time.Since(start).Nanoseconds())
		if err := sp.p.st.PutStructured(regionMerged); err != nil {
			return events, err
		}
	}
	// Point layer over the trajectory's whole stop sequence. This is the one
	// per-trajectory step that stays monolithic even under concurrent
	// ingestion: the HMM decodes the full stop sequence jointly. The merged
	// tuples it annotates were appended to the store as their episodes
	// closed, and a published tuple is never written again, so the inferred
	// categories merge through the store, which swaps merged copies in under
	// the stripe lock and notifies the attached query index.
	var stopEps []*episode.Episode
	var stopIdx []int // position of each stop in the merged interpretation
	for i, ep := range os.episodes {
		if ep.Kind == episode.Stop {
			stopEps = append(stopEps, ep)
			stopIdx = append(stopIdx, i)
		}
	}
	if sp.p.pointAnnotator != nil && len(stopEps) > 0 {
		start := time.Now()
		pointTuples, _, err := sp.p.pointAnnotator.AnnotateStopsCursor(stopEps, os.cur.point)
		if err != nil {
			return events, fmt.Errorf("semitri: %w", err)
		}
		obs.IngestStagePOINs.ObserveNs(time.Since(start).Nanoseconds())
		if err := sp.p.st.PutStructured(&core.StructuredTrajectory{
			ID: t.ID, ObjectID: t.ObjectID, Interpretation: InterpretationPoint, Tuples: pointTuples,
		}); err != nil {
			return events, fmt.Errorf("semitri: %w", err)
		}
		for i, tp := range pointTuples {
			if err := sp.p.st.MergeTupleAnnotations(t.ID, InterpretationMerged, stopIdx[i], tp.Place, tp.Annotations.All()); err != nil {
				return events, fmt.Errorf("semitri: trajectory %s stop %d: %w", t.ID, i, err)
			}
		}
	}
	// Replace the partial trajectory stored at commit time with the final one.
	if err := sp.putRun(os); err != nil {
		return events, err
	}
	if err := sp.p.st.PutTrajectory(t.ID, t.ObjectID, os.segStart, len(t.Records)); err != nil {
		return events, err
	}
	// Stops/moves count only kept trajectories.
	for _, ep := range os.episodes {
		if ep.Kind == episode.Stop {
			sp.stops.Add(1)
		} else {
			sp.moves.Add(1)
		}
	}
	os.closedIDs = append(os.closedIDs, t.ID)
	obs.IngestTrajectories.Inc()
	events = append(events, StreamEvent{ObjectID: t.ObjectID, TrajectoryID: t.ID, TrajectoryClosed: true})
	return events, nil
}

// reset clears the per-trajectory state after a close or drop, keeping the
// object's cleaner/segmenter (their history spans trajectories), its
// buffers and its closed flag. The tracker is reset when the next
// trajectory opens.
func (os *objectStream) reset() {
	os.id = ""
	clear(os.episodes)
	os.episodes = os.episodes[:0]
	os.staged = nil
	os.stagedEvents = nil
}

// release drops every per-object buffer once the object is closed.
func (os *objectStream) release() {
	os.cleaner, os.segmenter, os.tracker, os.cur = nil, nil, nil, nil
	os.run, os.episodes = nil, nil
}

// Flush force-closes the object's open trajectory (drains the cleaner's
// smoothing window first). Use it when an object's session ends mid-stream;
// note that flushing resets the object's smoothing history, so the parity
// guarantee holds for streams flushed only by Close.
func (sp *StreamProcessor) Flush(objectID string) ([]StreamEvent, error) {
	sp.reg.RLock()
	closed := sp.closed
	os := sp.objects[objectID]
	sp.reg.RUnlock()
	if closed {
		return nil, errStreamClosed
	}
	if os == nil {
		return nil, nil
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	if os.closed {
		return nil, errStreamClosed
	}
	return sp.flushObject(os)
}

// flushObject drains and closes one object's open state. Caller holds os.mu.
func (sp *StreamProcessor) flushObject(os *objectStream) ([]StreamEvent, error) {
	var events []StreamEvent
	for _, cr := range os.cleaner.Flush(os.objectID) {
		evs, err := sp.ingestCleaned(os, cr, os.sampleTimed())
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	if t := os.segmenter.Flush(os.objectID); t != nil {
		evs, err := sp.closeTrajectory(os, t)
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	} else {
		os.reset() // open segment dropped (too short) or absent
	}
	return events, sp.putRun(os)
}

// sortedObjects returns the registered objects ordered by object id. Caller
// holds reg.
func (sp *StreamProcessor) sortedObjects() []*objectStream {
	objects := make([]*objectStream, 0, len(sp.objects))
	for _, os := range sp.objects {
		objects = append(objects, os)
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i].objectID < objects[j].objectID })
	return objects
}

// Close ends the stream: every object's pending records are drained, every
// open trajectory is closed and annotated, and the accumulated Result is
// produced. The processor accepts no further records. Close waits for
// in-flight Adds to finish; Adds issued after Close fail.
func (sp *StreamProcessor) Close() (*Result, error) {
	sp.reg.Lock()
	if sp.closed {
		sp.reg.Unlock()
		return nil, errStreamClosed
	}
	sp.closed = true
	objects := sp.sortedObjects()
	sp.reg.Unlock()
	// Flush object by object in sorted order, so the tail writes of a
	// sequentially fed stream are deterministic. Locking os.mu waits out any
	// Add that was already past the closed check; once flushed, the object's
	// own closed flag rejects stragglers.
	for _, os := range objects {
		os.mu.Lock()
		var err error
		if !os.closed {
			_, err = sp.flushObject(os)
			os.closed = true
			os.release()
		}
		os.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// A closed stream is a durability boundary: force the WAL's pending
	// frames to stable storage so everything this stream ingested survives
	// a crash from here on (no-op for non-durable pipelines).
	if err := sp.p.SyncDurability(); err != nil {
		return nil, err
	}
	// An empty outcome is an error, so a misconfigured segmentation is not
	// mistaken for a quiet feed.
	result := sp.Result()
	if result.Records == 0 {
		return nil, errors.New("semitri: no records")
	}
	if len(result.TrajectoryIDs) == 0 {
		return nil, errors.New("semitri: no trajectories identified (check segmentation config)")
	}
	return &result, nil
}

// Result returns a snapshot of the running totals (records cleaned, episodes
// and trajectories closed so far).
func (sp *StreamProcessor) Result() Result {
	sp.reg.RLock()
	objects := sp.sortedObjects()
	sp.reg.RUnlock()
	var ids []string
	for _, os := range objects {
		os.mu.Lock()
		ids = append(ids, os.closedIDs...)
		os.mu.Unlock()
	}
	return Result{
		TrajectoryIDs: ids,
		Records:       int(sp.records.Load()),
		Stops:         int(sp.stops.Load()),
		Moves:         int(sp.moves.Load()),
	}
}
