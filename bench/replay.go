package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/line"
	"semitri/internal/point"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/region"
	"semitri/internal/segment"
	"semitri/internal/serve"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// The layer replay re-runs a workload's data through the layers one at a
// time, calling each layer's public functions from here, so that a layer's
// time is its own: nothing else runs between its spans. It is a separate
// run; the end-to-end numbers always come from the untraced one.

// span is one timed call into a layer, at chunk granularity: per trajectory
// or per replayChunk records, never per record.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 at the top
	Workload string `json:"workload"`
}

const replayChunk = 4096

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, StartNs: time.Since(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes a span and returns how long it lasted, in nanoseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNs = time.Since(t.origin).Nanoseconds()
	return float64(s.EndNs - s.StartNs)
}

// chunked calls fn for every replayChunk-sized range of n items, each under
// its own span below stage, and returns the time the spans add up to.
func (t *tracer) chunked(stage int, n int, fn func(lo, hi int)) float64 {
	total := 0.0
	for lo := 0; lo < n; lo += replayChunk {
		id := t.begin(t.spans[stage].Name+".chunk", stage)
		fn(lo, min(lo+replayChunk, n))
		total += t.end(id)
	}
	return total
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}

// replayInput describes a workload to the replay: its records, its pipeline
// profile and which observers its end-to-end ingest has attached.
type replayInput struct {
	ds          *dataset
	cfg         semitri.Config
	engine      bool // query engine attached before ingest
	durable     bool // WAL and segment tier attached
	checkpoints int
	mix         func(*stmtGen) ([]stmt, error) // the workload's own query mix
}

// recorder captures what the store hands its two observers during one
// ingest: every committed mutation and every index notification.
type recorder struct {
	mutations []store.Mutation
	calls     []indexCall
}

type indexCall struct {
	replaced               bool
	updated                bool
	trajectory, object, in string
	events                 []store.TupleEvent
}

// LogMutation copies what later writers may still change: the tuples'
// annotation sets.
func (r *recorder) LogMutation(m store.Mutation) {
	if len(m.Tuples) > 0 {
		tuples := make([]*core.EpisodeTuple, len(m.Tuples))
		for i, tp := range m.Tuples {
			c := *tp
			c.Annotations = tp.Annotations.Clone()
			tuples[i] = &c
		}
		m.Tuples = tuples
	}
	r.mutations = append(r.mutations, m)
}

func (r *recorder) TuplesAppended(events []store.TupleEvent) {
	r.calls = append(r.calls, indexCall{events: append([]store.TupleEvent(nil), events...)})
}

func (r *recorder) StructuredReplaced(trajectoryID, objectID, interpretation string, events []store.TupleEvent) {
	r.calls = append(r.calls, indexCall{replaced: true, trajectory: trajectoryID, object: objectID, in: interpretation,
		events: append([]store.TupleEvent(nil), events...)})
}

func (r *recorder) TupleUpdated(event store.TupleEvent) {
	r.calls = append(r.calls, indexCall{updated: true, events: []store.TupleEvent{event}})
}

// replay runs the layer replay of one workload and reports the per-layer
// metrics.
func replay(e *env, name string, in replayInput) (Report, error) {
	r := newRun(e, name)
	tr := &tracer{workload: name, origin: time.Now()}
	root := tr.begin(name, -1)
	dir, err := e.tempDir("replay-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	records := float64(len(in.ds.feed))
	r.rep.Records, r.rep.Objects = len(in.ds.feed), len(in.ds.objects)
	layerNs := map[string]float64{} // total time per ingest layer

	// A stage is one layer's turn. It starts from a collected heap and runs
	// with the collector off: a collection of the replay's large heap would
	// otherwise land on whichever layer happens to be running and make its
	// time unrepeatable. What the layers' garbage costs end to end is
	// reported once, as semitri.gc_cpu_ns_per_record.
	gcPercent := debug.SetGCPercent(-1)
	debug.SetGCPercent(gcPercent)
	begin := func(name string) int {
		runtime.GC()
		debug.SetGCPercent(-1)
		return tr.begin(name, root)
	}
	end := func(stage int) float64 {
		ns := tr.end(stage)
		debug.SetGCPercent(gcPercent)
		return ns
	}

	// The reference: an end-to-end ingest in the workload's own configuration,
	// twice. The first pass in a process pays for growing the heap; the second
	// is what the median of the end-to-end run's passes sees.
	var wallNs float64
	for pass := 0; pass < 2; pass++ {
		cfg := in.cfg
		if in.durable {
			cfg = durable(cfg, filepath.Join(dir, fmt.Sprintf("e2e-%d", pass)))
		}
		p, err := r.pipeline(in.ds, cfg)
		if err != nil {
			return Report{}, err
		}
		if in.engine {
			p.QueryEngine()
		}
		runtime.GC()
		gcBefore := gcCPUSeconds()
		id := tr.begin("semitri.ingest", root)
		r.ingest(p, in.ds.feed, in.checkpoints)
		wallNs = tr.end(id)
		r.samples["semitri.gc_cpu_ns_per_record"] = []float64{(gcCPUSeconds() - gcBefore) * 1e9 / records}
		r.op("close pipeline", p.Close())
	}
	r.add("semitri.ingest_wall_ns_per_record", wallNs/records)

	// One more ingest, in memory, with the recorder as the store's mutation
	// log and index: the inputs of the store, index, WAL and segment replays.
	rec := &recorder{}
	p, err := r.pipeline(in.ds, in.cfg)
	if err != nil {
		return Report{}, err
	}
	p.Store().AttachLog(rec)
	p.Store().AttachIndex(rec)
	r.ingest(p, in.ds.feed, 0)

	// gps: clean, then segment, over the merged feed; one cleaner and one
	// segmenter per object, as the stream processor keeps them.
	stage := begin("gps.clean")
	cleaners := map[string]*gps.StreamCleaner{}
	cleaned := make([]gps.Record, 0, len(in.ds.feed))
	layerNs["gps.clean"] += tr.chunked(stage, len(in.ds.feed), func(lo, hi int) {
		for _, rc := range in.ds.feed[lo:hi] {
			c := cleaners[rc.ObjectID]
			if c == nil {
				c = gps.NewStreamCleaner(in.cfg.Cleaning)
				cleaners[rc.ObjectID] = c
			}
			cleaned = append(cleaned, c.Add(rc)...)
		}
	})
	id := tr.begin("gps.clean.flush", stage)
	for _, o := range in.ds.objects {
		cleaned = append(cleaned, cleaners[o].Flush(o)...)
	}
	layerNs["gps.clean"] += tr.end(id)
	end(stage)
	r.add("gps.clean_ns_per_record", layerNs["gps.clean"]/records)
	r.add("gps.records_in", records)
	r.add("gps.records_out", float64(len(cleaned)))
	r.add("gps.records_dropped", records-float64(len(cleaned)))

	stage = begin("gps.segment")
	segmenters := map[string]*gps.StreamSegmenter{}
	var trajectories []*gps.RawTrajectory
	layerNs["gps.segment"] += tr.chunked(stage, len(cleaned), func(lo, hi int) {
		for _, rc := range cleaned[lo:hi] {
			s := segmenters[rc.ObjectID]
			if s == nil {
				s = gps.NewStreamSegmenter(in.cfg.Segmentation, in.cfg.DailySplit)
				segmenters[rc.ObjectID] = s
			}
			if ev := s.Add(rc); ev.Closed != nil {
				trajectories = append(trajectories, ev.Closed)
			}
		}
	})
	id = tr.begin("gps.segment.flush", stage)
	for _, o := range in.ds.objects {
		if t := segmenters[o].Flush(o); t != nil {
			trajectories = append(trajectories, t)
		}
	}
	layerNs["gps.segment"] += tr.end(id)
	end(stage)
	r.add("gps.segment_ns_per_record", layerNs["gps.segment"]/float64(len(cleaned)))

	// episode: the tracker, trajectory by trajectory.
	stage = begin("episode.track")
	episodes := make([][]*episode.Episode, len(trajectories))
	nEpisodes := 0
	for i, t := range trajectories {
		id := tr.begin("episode.track.trajectory", stage)
		tk, err := episode.NewTracker(t.ID, t.ObjectID, in.cfg.Episode)
		if err != nil {
			return Report{}, err
		}
		for _, rc := range t.Records {
			eps, err := tk.Add(rc)
			if err != nil {
				r.op("track", err)
			}
			episodes[i] = append(episodes[i], eps...)
		}
		tail, err := tk.Finish()
		r.op("track", err)
		episodes[i] = append(episodes[i], tail...)
		layerNs["episode.track"] += tr.end(id)
		nEpisodes += len(episodes[i])
	}
	end(stage)
	r.add("episode.track_ns_per_record", layerNs["episode.track"]/float64(len(cleaned)))
	r.add("episode.episodes_out", float64(nEpisodes))

	// region, line, point: the three annotators with one locality cursor per
	// object, over the trajectories and episodes found above.
	src := in.ds.sources()
	regionAnn, err := region.NewAnnotator(src.Landuse)
	if err != nil {
		return Report{}, err
	}
	lineAnn, err := line.NewAnnotator(src.Roads, in.cfg.Line)
	if err != nil {
		return Report{}, err
	}
	pointAnn, err := point.NewAnnotator(src.POIs, in.cfg.Point)
	if err != nil {
		return Report{}, err
	}
	regionCur, lineCur, pointCur := map[string]*region.Cursor{}, map[string]*line.Cursor{}, map[string]*point.Cursor{}
	for _, o := range in.ds.objects {
		regionCur[o], lineCur[o], pointCur[o] = regionAnn.NewCursor(), lineAnn.NewCursor(), pointAnn.NewCursor()
	}

	stage = begin("region.annotate")
	for i, t := range trajectories {
		id := tr.begin("region.annotate.trajectory", stage)
		cur := regionCur[t.ObjectID]
		for _, ep := range episodes[i] {
			_, err := regionAnn.AnnotateEpisodesCursor([]*episode.Episode{ep}, cur)
			r.op("region", err)
		}
		st, err := regionAnn.AnnotateTrajectoryCursor(t, cur)
		if r.op("region", err) {
			st.MergeConsecutive(core.AnnLanduse)
		}
		layerNs["region.annotate"] += tr.end(id)
	}
	end(stage)
	r.add("region.annotate_ns_per_record", layerNs["region.annotate"]/float64(len(cleaned)))
	r.add("region.cursor_hit_ratio", hitRatio(regionCur))

	stage = begin("line.match")
	points := 0
	for i, t := range trajectories {
		id := tr.begin("line.match.trajectory", stage)
		for _, ep := range episodes[i] {
			if ep.Kind == episode.Move {
				_, _, err := lineAnn.AnnotateMoveCursor(t, ep, lineCur[t.ObjectID])
				r.op("line", err)
				points += ep.RecordCount
			}
		}
		layerNs["line.match"] += tr.end(id)
	}
	end(stage)
	r.add("line.match_ns_per_point", layerNs["line.match"]/float64(max(points, 1)))
	r.add("line.cursor_hit_ratio", hitRatio(lineCur))

	stage = begin("point.annotate")
	stops := 0
	for i, t := range trajectories {
		id := tr.begin("point.annotate.trajectory", stage)
		if s := episode.Stops(episodes[i]); len(s) > 0 {
			_, _, err := pointAnn.AnnotateStopsCursor(s, pointCur[t.ObjectID])
			r.op("point", err)
			stops += len(s)
		}
		layerNs["point.annotate"] += tr.end(id)
	}
	end(stage)
	r.add("point.annotate_ns_per_stop", layerNs["point.annotate"]/float64(max(stops, 1)))

	// Candidates per point and per stop, counted outside the timed stages.
	lineCands, linePoints, pointCands := 0, 0, 0
	probeLine, probePoint := lineAnn.NewCursor(), pointAnn.NewCursor()
	for i, t := range trajectories {
		for _, ep := range episodes[i] {
			if ep.Kind == episode.Stop {
				pointCands += len(pointAnn.Candidates(ep.Center, probePoint))
				continue
			}
			for _, rc := range ep.Records(t) {
				lineCands += len(lineAnn.Candidates(rc.Position, in.cfg.Line.CandidateRadius, probeLine))
				linePoints++
			}
		}
	}
	r.add("line.candidates_per_point", float64(lineCands)/float64(max(linePoints, 1)))
	r.add("point.candidates_per_stop", float64(pointCands)/float64(max(stops, 1)))

	// store: the captured mutations through Store.Apply into an empty store.
	stage = begin("store.apply")
	applied := store.NewSharded(in.cfg.StoreShards)
	layerNs["store.apply"] += tr.chunked(stage, len(rec.mutations), func(lo, hi int) {
		for _, m := range rec.mutations[lo:hi] {
			if err := applied.Apply(m); err != nil {
				r.op("apply", err)
			}
		}
	})
	end(stage)
	r.ops(len(rec.mutations))
	r.check("replayed store equals the ingested store", digest(applied) == digest(p.Store()))
	r.add("store.apply_ns_per_mutation", layerNs["store.apply"]/float64(len(rec.mutations)))
	byTable := map[string]float64{}
	for _, m := range rec.mutations {
		byTable[mutationTable(m.Op)]++
	}
	for _, table := range mutationTables {
		r.add("store.mutations_"+table, byTable[table])
	}

	// query: index maintenance, the captured notifications into an engine
	// over an empty store.
	stage = begin("query.index")
	indexed := query.NewEngineWith(store.NewSharded(in.cfg.StoreShards), query.Options{Parallelism: e.nproc})
	tuples := 0
	layerNs["query.index"] += tr.chunked(stage, len(rec.calls), func(lo, hi int) {
		for _, c := range rec.calls[lo:hi] {
			switch {
			case c.replaced:
				indexed.StructuredReplaced(c.trajectory, c.object, c.in, c.events)
			case c.updated:
				indexed.TupleUpdated(c.events[0])
			default:
				indexed.TuplesAppended(c.events)
			}
			tuples += len(c.events)
		}
	})
	end(stage)
	ixs := indexed.IndexStats()
	r.add("query.index_ns_per_tuple", layerNs["query.index"]/float64(max(tuples, 1)))
	r.add("query.index_entries", float64(ixs.IndexedTuples+ixs.AnnotationPostings+ixs.SpatialItems))

	// wal: frame and log every mutation, then the sync barrier; then replay
	// the log the way recovery does.
	walDir := filepath.Join(dir, "wal")
	before := counters()
	l, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncInterval})
	if err != nil {
		return Report{}, err
	}
	stage = begin("wal.log")
	layerNs["wal.log"] += tr.chunked(stage, len(rec.mutations), func(lo, hi int) {
		for _, m := range rec.mutations[lo:hi] {
			l.LogMutation(m)
		}
	})
	id = tr.begin("wal.sync", stage)
	r.op("wal sync", l.Sync())
	barrierNs := tr.end(id)
	layerNs["wal.log"] += barrierNs
	end(stage)
	r.op("wal close", l.Close())
	after := counters()
	r.add("wal.log_ns_per_mutation", (layerNs["wal.log"]-barrierNs)/float64(len(rec.mutations)))
	r.add("wal.sync_barrier_ms", barrierNs/1e6)
	r.add("wal.bytes_per_record", (after["semitri_wal_bytes_total"]-before["semitri_wal_bytes_total"])/records)
	r.add("wal.fsyncs", after["semitri_wal_fsync_total"]-before["semitri_wal_fsync_total"])
	stage = begin("wal.replay")
	replayed, stats, err := wal.Recover(walDir, in.cfg.StoreShards)
	replayNs := end(stage)
	if r.op("wal recover", err) {
		r.check("store replayed from the WAL equals the ingested store", digest(replayed) == digest(p.Store()))
		r.add("wal.replay_ns_per_frame", replayNs/float64(max(stats.FramesApplied, 1)))
	}

	// segment: freeze the store in four steps as it fills, reopen the
	// directory, scan every cold tuple.
	segDir := filepath.Join(dir, "segments")
	tiered, tier, _, err := segment.Recover(segDir, in.cfg.StoreShards)
	if err != nil {
		return Report{}, err
	}
	stage = begin("segment.freeze")
	const freezes = 4
	var freezeMs []float64
	for f := 0; f < freezes; f++ {
		lo, hi := f*len(rec.mutations)/freezes, (f+1)*len(rec.mutations)/freezes
		for _, m := range rec.mutations[lo:hi] {
			if err := tiered.Apply(m); err != nil {
				r.op("apply", err)
			}
		}
		id := tr.begin("segment.freeze.checkpoint", stage)
		r.op("freeze", tier.Freeze(tiered))
		ns := tr.end(id)
		freezeMs = append(freezeMs, ns/1e6)
		if f < in.checkpoints {
			layerNs["segment.freeze"] += ns
		}
	}
	end(stage)
	r.samples["segment.freeze_ms"] = freezeMs
	segBytes, err := dirBytes(segDir)
	if err != nil {
		return Report{}, err
	}
	r.add("segment.bytes_per_record", float64(segBytes)/records)
	r.op("tier close", tier.Close())
	stage = begin("segment.open")
	cold, tier, _, err := segment.Recover(segDir, in.cfg.StoreShards)
	openNs := end(stage)
	if !r.op("segment recover", err) {
		return r.finish(), nil
	}
	defer tier.Close()
	r.add("segment.open_ms", openNs/1e6)
	r.check("store reopened from segments equals the ingested store", digest(cold) == digest(p.Store()))
	stage = begin("segment.cold_scan")
	coldTuples, scanNs := 0, 0.0
	for seg := 0; seg < cold.ColdSegmentCount(); seg++ {
		id := tr.begin("segment.cold_scan.segment", stage)
		cold.VisitColdSegmentTuples(seg, query.DefaultInterpretation, func(store.TupleRef, core.EpisodeTuple) bool {
			coldTuples++
			return true
		})
		scanNs += tr.end(id)
	}
	end(stage)
	r.add("segment.cold_scan_ns_per_tuple", scanNs/float64(max(coldTuples, 1)))

	// The read side, on the cold store: every statement class in-process,
	// then the same statements through the HTTP handler.
	engine := query.NewEngineWith(cold, query.Options{Parallelism: e.nproc})
	gen, err := newStmtGen(e.seed, profileStore(cold))
	if err != nil {
		return Report{}, err
	}
	stmts, err := gen.everyClass(16)
	if err != nil {
		return Report{}, err
	}
	own, err := in.mix(gen)
	if err != nil {
		return Report{}, err
	}
	stmts = append(stmts, own...)
	stage = begin("query.execute")
	classNs, classN := map[string]float64{}, map[string]float64{}
	inProcessNs := make([]float64, len(stmts))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i, s := range stmts {
		id := tr.begin("query.execute."+s.class, stage)
		_, err := execute(engine, s)
		inProcessNs[i] = tr.end(id)
		r.op(s.url, err)
		classNs[s.class] += inProcessNs[i]
		classN[s.class]++
	}
	runtime.ReadMemStats(&ms)
	end(stage)
	for _, class := range queryClasses {
		r.add("query.execute_ns_"+class, classNs[class]/classN[class])
	}
	r.add("query.allocs_per_query", float64(ms.Mallocs-mallocs)/float64(len(stmts)))
	examined, returned, considered, pruned := 0, 0, 0, 0
	for _, s := range stmts {
		var qt *query.Trace
		if s.src == "" {
			_, _, qt, err = engine.ExecuteTraced(s.q)
		} else {
			_, qt, err = lang.RunTraced(engine, s.src)
		}
		if !r.op("traced "+s.url, err) {
			continue
		}
		for ; qt != nil; qt = qt.Build {
			examined, returned = examined+qt.Candidates, returned+qt.Returned
			for _, d := range qt.Segments {
				considered++
				if d.Pruned {
					pruned++
				}
			}
		}
	}
	r.add("query.rows_examined_per_returned", float64(examined)/float64(max(returned, 1)))
	r.add("segment.pruned_share", float64(pruned)/float64(max(considered, 1)))

	stage = begin("lang.parse")
	parsed := 0
	for _, s := range stmts {
		if s.src != "" {
			_, err := lang.Parse(s.src)
			r.op("parse", err)
			parsed++
		}
	}
	r.add("lang.parse_ns", end(stage)/float64(max(parsed, 1)))

	stage = begin("serve.handler")
	handler := serve.New(engine).Handler()
	overheadNs, bodyBytes, rows := 0.0, 0, 0
	for i, s := range stmts {
		req := httptest.NewRequest(http.MethodGet, s.url, nil)
		w := httptest.NewRecorder()
		id := tr.begin("serve.handler."+s.class, stage)
		handler.ServeHTTP(w, req)
		overheadNs += tr.end(id) - inProcessNs[i]
		if w.Code != http.StatusOK {
			r.op(s.url, fmt.Errorf("status %d", w.Code))
			continue
		}
		r.ops(1)
		answer, err := wireAnswer(w.Body.Bytes())
		r.op("decode "+s.url, err)
		bodyBytes, rows = bodyBytes+w.Body.Len(), rows+len(answer)
	}
	end(stage)
	r.add("serve.overhead_ns", overheadNs/float64(len(stmts)))
	r.add("serve.bytes_per_row", float64(bodyBytes)/float64(max(rows, 1)))

	// The live layers: a short front-door phase over a pipeline preloaded with
	// one half of the objects while the other half is fed.
	preload, live := in.ds.halves()
	lp, err := r.pipeline(preload, in.cfg)
	if err != nil {
		return Report{}, err
	}
	lp.Live()
	r.ingest(lp, preload.feed, 0)
	lgen, err := newStmtGen(e.seed, profileStore(lp.Store()))
	if err != nil {
		return Report{}, err
	}
	mix, err := lgen.servingMix(2048)
	if err != nil {
		return Report{}, err
	}
	id = tr.begin("serve.live", root)
	res, err := r.livePhase(lp, live.feed, e.feedRate(), max(e.budget(0.25), time.Second), mix)
	tr.end(id)
	if err != nil {
		return Report{}, err
	}
	r.op("close pipeline", lp.Close())
	r.add("serve.p99_ms", res.load.p99())
	r.samples["serve.sse_delivery_lag_ms"] = res.sseLagMs
	if len(res.sseLagMs) == 0 {
		r.check("the SSE client saw stops the feeder produced", false)
	}
	r.add("obs.bus_drops", float64(res.bus.Dropped))
	r.add("obs.bus_max_lag", float64(res.bus.MaxLag))

	// The budget: the layers attached in the end-to-end ingest against its wall.
	attached := []string{"gps.clean", "gps.segment", "episode.track", "region.annotate", "line.match", "point.annotate", "store.apply"}
	if in.engine {
		attached = append(attached, "query.index")
	}
	if in.durable {
		attached = append(attached, "wal.log", "segment.freeze")
	}
	total := 0.0
	for _, layer := range attached {
		total += layerNs[layer]
	}
	for _, layer := range ingestLayers {
		share := 0.0
		for _, a := range attached {
			if a == layer {
				share = layerNs[layer] / wallNs
			}
		}
		r.add("semitri.share_"+layer, share)
	}
	r.add("semitri.ingest_budget_coverage", total/wallNs)
	r.add("semitri.wiring_ns_per_record", (wallNs-total)/records)

	tr.end(root)
	if err := tr.write(e.outDir); err != nil {
		return Report{}, err
	}
	return r.finish(), nil
}

// hitRatio is the share of lookups the objects' locality cursors answered
// from their cache.
func hitRatio[C interface{ Stats() (hits, misses uint64) }](cursors map[string]C) float64 {
	var hits, misses uint64
	for _, c := range cursors {
		h, m := c.Stats()
		hits, misses = hits+h, misses+m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// gcCPUSeconds is the CPU time the collector has used so far, on all cores.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// ingestLayers are the layers of the ingest budget, in pipeline order.
var ingestLayers = []string{"gps.clean", "gps.segment", "episode.track", "region.annotate", "line.match", "point.annotate",
	"store.apply", "query.index", "wal.log", "segment.freeze"}

var mutationTables = []string{"records", "trajectories", "episodes", "structured", "annotations"}

func mutationTable(op store.MutationOp) string {
	switch op {
	case store.MutPutRecords:
		return "records"
	case store.MutPutTrajectory:
		return "trajectories"
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		return "episodes"
	case store.MutMergeTuple:
		return "annotations"
	}
	return "structured"
}
