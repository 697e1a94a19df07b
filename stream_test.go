package semitri_test

import (
	"reflect"
	"slices"
	"testing"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/line"
	"semitri/internal/point"
	"semitri/internal/region"
	"semitri/internal/store"
	"semitri/internal/workload"
)

func newTestCity(t testing.TB, seed int64, pois int) *workload.City {
	t.Helper()
	city, err := workload.NewCity(workload.DefaultCityConfig(seed, pois))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func newTestPipeline(t testing.TB, city *workload.City, cfg semitri.Config) *semitri.Pipeline {
	t.Helper()
	p, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func peopleRecords(t testing.TB, city *workload.City, users, days int, seed int64) []gps.Record {
	t.Helper()
	ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(users, days, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds.Records()
}

// oracle is the simple reference the ingest path is proved equal to: the
// per-layer batch kernels — sort, gps.Clean, SplitDaily/IdentifyTrajectories,
// episode.Detect and the annotators' whole-trajectory entry points, without
// cursors, staging or appends — composed trajectory by trajectory into an
// in-memory store. It returns that store and the Result ProcessRecords must
// report for the same records.
func oracle(t testing.TB, city *workload.City, cfg semitri.Config, records []gps.Record) (*store.Store, *semitri.Result) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	regionAnn, err := region.NewAnnotator(city.Landuse)
	must(err)
	lineAnn, err := line.NewAnnotator(city.Roads, cfg.Line)
	must(err)
	pointAnn, err := point.NewAnnotator(city.POIs, cfg.Point)
	must(err)

	sorted := append([]gps.Record(nil), records...)
	gps.SortRecords(sorted)
	cleaned := gps.Clean(sorted, cfg.Cleaning)
	st := store.New()
	st.PutRecords(cleaned)
	trajectories := gps.IdentifyTrajectories(cleaned, cfg.Segmentation)
	if cfg.DailySplit {
		trajectories = gps.SplitDaily(cleaned, cfg.Segmentation)
	}
	result := &semitri.Result{Records: len(cleaned)}
	// A stored trajectory is a range of its object's record run: find where
	// its first record sits, after the object's previous trajectory.
	runs := map[string][]gps.Record{}
	for _, r := range cleaned {
		runs[r.ObjectID] = append(runs[r.ObjectID], r)
	}
	next := map[string]int{}
	for _, tr := range trajectories {
		start := next[tr.ObjectID]
		for runs[tr.ObjectID][start] != tr.Records[0] {
			start++
		}
		next[tr.ObjectID] = start + len(tr.Records)
		must(st.PutTrajectory(tr.ID, tr.ObjectID, start, len(tr.Records)))
		eps, err := episode.Detect(tr, cfg.Episode)
		must(err)
		must(st.PutEpisodes(tr.ID, eps))
		put := func(interpretation string, tuples []*core.EpisodeTuple) {
			t.Helper()
			must(st.PutStructured(&core.StructuredTrajectory{
				ID: tr.ID, ObjectID: tr.ObjectID, Interpretation: interpretation, Tuples: tuples,
			}))
		}

		// Region layer: record level (consecutive tuples merged) and per episode.
		recordLevel, err := regionAnn.AnnotateTrajectory(tr)
		must(err)
		must(st.PutStructured(recordLevel.MergeConsecutive(core.AnnLanduse)))
		regionTuples, err := regionAnn.AnnotateEpisodes(eps)
		must(err)
		put(semitri.InterpretationRegionEpisodes, regionTuples)

		// The merged interpretation starts from the region tuples.
		merged := make([]*core.EpisodeTuple, len(eps))
		for i, ep := range eps {
			merged[i] = &core.EpisodeTuple{Kind: ep.Kind, TimeIn: ep.Start, TimeOut: ep.End, Episode: ep, Place: regionTuples[i].Place}
			merged[i].Annotations.Merge(&regionTuples[i].Annotations)
		}

		// Line layer over the moves; each move's merged tuple carries the mode
		// covering the most records (ties to the smaller name).
		var lineTuples []*core.EpisodeTuple
		for i, ep := range eps {
			if ep.Kind != episode.Move {
				continue
			}
			tuples, runs, err := lineAnn.AnnotateMove(tr, ep)
			must(err)
			lineTuples = append(lineTuples, tuples...)
			if len(runs) == 0 {
				continue
			}
			weights := map[line.Mode]int{}
			for _, r := range runs {
				weights[r.Mode] += r.EndIdx - r.StartIdx + 1
			}
			var mode line.Mode
			for m, w := range weights {
				if w > weights[mode] || (w == weights[mode] && m < mode) {
					mode = m
				}
			}
			merged[i].Annotations.Add(core.Annotation{
				Key: core.AnnTransportMode, Value: string(mode), Confidence: 0.9, Source: "line"})
			// Outside the land-use map the move's place is its longest run's road.
			longest := 0
			for j, r := range runs {
				if r.EndIdx-r.StartIdx > runs[longest].EndIdx-runs[longest].StartIdx {
					longest = j
				}
			}
			if merged[i].Place == nil && longest < len(tuples) {
				merged[i].Place = tuples[longest].Place
			}
		}
		if len(episode.Moves(eps)) > 0 {
			put(semitri.InterpretationLine, lineTuples)
		}

		// Point layer over the whole stop sequence.
		if stops := episode.Stops(eps); len(stops) > 0 {
			pointTuples, _, err := pointAnn.AnnotateStops(stops)
			must(err)
			put(semitri.InterpretationPoint, pointTuples)
			next := 0
			for i, ep := range eps {
				if ep.Kind != episode.Stop {
					continue
				}
				merged[i].Annotations.Merge(&pointTuples[next].Annotations)
				if pointTuples[next].Place != nil {
					merged[i].Place = pointTuples[next].Place
				}
				next++
			}
		}
		put(semitri.InterpretationMerged, merged)

		result.TrajectoryIDs = append(result.TrajectoryIDs, tr.ID)
		result.Stops += len(episode.Stops(eps))
		result.Moves += len(episode.Moves(eps))
	}
	return st, result
}

// tuplesEqual compares tuple slices field by field (pointer identities
// naturally differ between the oracle and the pipeline).
func tuplesEqual(t *testing.T, label string, batch, stream []*core.EpisodeTuple) {
	t.Helper()
	if len(batch) != len(stream) {
		t.Fatalf("%s: tuple count: batch %d, stream %d", label, len(batch), len(stream))
	}
	for i := range batch {
		b, s := batch[i], stream[i]
		if b.Kind != s.Kind || !b.TimeIn.Equal(s.TimeIn) || !b.TimeOut.Equal(s.TimeOut) {
			t.Fatalf("%s tuple %d: kind/time differ:\n batch  %v %v-%v\n stream %v %v-%v",
				label, i, b.Kind, b.TimeIn, b.TimeOut, s.Kind, s.TimeIn, s.TimeOut)
		}
		if !reflect.DeepEqual(b.Place, s.Place) {
			t.Fatalf("%s tuple %d: place differs:\n batch  %+v\n stream %+v", label, i, b.Place, s.Place)
		}
		if !reflect.DeepEqual(b.Annotations.All(), s.Annotations.All()) {
			t.Fatalf("%s tuple %d: annotations differ:\n batch  %s\n stream %s",
				label, i, b.Annotations.String(), s.Annotations.String())
		}
	}
}

// assertResultParity compares a closed stream's Result with the oracle's,
// trajectory id order (object id, then start time) included.
func assertResultParity(t *testing.T, want, got *semitri.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result %+v, oracle %+v", got, want)
	}
}

// TestBatchStreamParity feeds the same person-days of records through the
// batch-kernel oracle and through a StreamProcessor record by record, and
// asserts that both leave identical structured trajectories in their stores:
// same trajectory ids, same episode sequences, same tuples under every
// interpretation.
func TestBatchStreamParity(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 2, 2, 5)
	want, wantResult := oracle(t, city, semitri.DefaultConfig(), records)

	stream := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := stream.NewStream()
	var episodeEvents, trajectoryEvents int
	for _, r := range records {
		events, err := sp.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.Episode != nil {
				episodeEvents++
				if ev.Tuple == nil {
					t.Fatal("episode event without merged tuple")
				}
			}
			if ev.TrajectoryClosed {
				trajectoryEvents++
			}
		}
	}
	streamResult, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if episodeEvents == 0 {
		t.Fatal("stream never emitted an episode event")
	}

	_ = trajectoryEvents // day-boundary closes may or may not fire mid-stream

	assertResultParity(t, wantResult, streamResult)
	assertStoreParity(t, wantResult.TrajectoryIDs, want, stream.Store())
}

// TestBatchStreamParityProcessRecords pins ProcessRecords — a sort plus the
// stream path — to the oracle at every kind of Workers value: the same store
// and the identical Result, ids ordered by object id then start time however
// the objects raced.
func TestBatchStreamParityProcessRecords(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 4, 2, 5)
	want, wantResult := oracle(t, city, semitri.DefaultConfig(), records)
	for _, workers := range []int{0, 1, 4} {
		cfg := semitri.DefaultConfig()
		cfg.Workers = workers
		p := newTestPipeline(t, city, cfg)
		result, err := p.ProcessRecords(records)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertResultParity(t, wantResult, result)
		assertStoreParity(t, wantResult.TrajectoryIDs, want, p.Store())
	}
}

// TestProcessRecordsTwiceReplaces ingests the same records twice into one
// pipeline: the colliding trajectory ids are replaced, so episodes and every
// interpretation stay the oracle's instead of doubling. Only the raw record
// table appends, as it always has.
func TestProcessRecordsTwiceReplaces(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 2, 2, 5)
	want, wantResult := oracle(t, city, semitri.DefaultConfig(), records)
	p := newTestPipeline(t, city, semitri.DefaultConfig())
	for run := 0; run < 2; run++ {
		result, err := p.ProcessRecords(records)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertResultParity(t, wantResult, result)
	}
	for _, objectID := range want.Objects() {
		want.PutRecords(want.Records(objectID))
	}
	assertStoreParity(t, wantResult.TrajectoryIDs, want, p.Store())
	wantStops, wantMoves := want.EpisodeCounts()
	if stops, moves := p.Store().EpisodeCounts(); stops != wantStops || moves != wantMoves {
		t.Fatalf("episode counts after two runs: %d/%d, oracle %d/%d", stops, moves, wantStops, wantMoves)
	}
}

// assertStoreParity compares two pipeline stores tuple-for-tuple over the
// given trajectories: raw records, episode sequences and every stored
// interpretation must be identical.
func assertStoreParity(t *testing.T, trajectoryIDs []string, bst, sst *store.Store) {
	t.Helper()
	if bst.RecordCount() != sst.RecordCount() {
		t.Fatalf("stored records: batch %d, stream %d", bst.RecordCount(), sst.RecordCount())
	}
	for _, id := range trajectoryIDs {
		// Raw trajectories.
		bt, ok := bst.Trajectory(id)
		if !ok {
			t.Fatalf("batch store missing %s", id)
		}
		st, ok := sst.Trajectory(id)
		if !ok {
			t.Fatalf("stream store missing trajectory %s", id)
		}
		if !reflect.DeepEqual(bt.Records, st.Records) {
			t.Fatalf("trajectory %s records differ", id)
		}
		// Episodes.
		beps, seps := bst.Episodes(id), sst.Episodes(id)
		if len(beps) != len(seps) {
			t.Fatalf("trajectory %s: %d batch episodes, %d stream episodes", id, len(beps), len(seps))
		}
		for i := range beps {
			if !reflect.DeepEqual(*beps[i], *seps[i]) {
				t.Fatalf("trajectory %s episode %d differs:\n batch  %+v\n stream %+v",
					id, i, *beps[i], *seps[i])
			}
		}
		// Every stored interpretation.
		binterps := bst.Interpretations(id)
		if !reflect.DeepEqual(binterps, sst.Interpretations(id)) {
			t.Fatalf("trajectory %s interpretations: batch %v, stream %v",
				id, binterps, sst.Interpretations(id))
		}
		for _, interp := range binterps {
			b, _ := bst.Structured(id, interp)
			s, _ := sst.Structured(id, interp)
			if b.ObjectID != s.ObjectID {
				t.Fatalf("trajectory %s/%s: object id differs", id, interp)
			}
			tuplesEqual(t, id+"/"+interp, b.Tuples, s.Tuples)
		}
	}
}

// TestBatchStreamParityVehicle runs the parity check under the vehicle
// profile (no daily split, vehicle episode thresholds, forced car mode).
func TestBatchStreamParityVehicle(t *testing.T) {
	city := newTestCity(t, 3, 2000)
	cfg := workload.DefaultTaxiConfig(11)
	cfg.NumVehicles = 2
	cfg.TripsPerVehicle = 3
	ds, err := workload.GenerateVehicles(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := ds.Records()

	pipelineCfg := semitri.VehicleConfig()
	pipelineCfg.DailySplit = false

	want, wantResult := oracle(t, city, pipelineCfg, records)

	stream := newTestPipeline(t, city, pipelineCfg)
	sp := stream.NewStream()
	if _, err := sp.AddBatch(records); err != nil {
		t.Fatal(err)
	}
	streamResult, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	assertResultParity(t, wantResult, streamResult)
	assertStoreParity(t, wantResult.TrajectoryIDs, want, stream.Store())
}

// TestStreamTailAndFlush exercises the per-object flush of an open tail.
func TestStreamTailAndFlush(t *testing.T) {
	city := newTestCity(t, 2, 2000)
	records := peopleRecords(t, city, 1, 1, 9)
	p := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := p.NewStream()

	half := len(records) / 2
	if _, err := sp.AddBatch(records[:half]); err != nil {
		t.Fatal(err)
	}
	object := records[0].ObjectID
	events, err := sp.Flush(object)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	for _, ev := range events {
		if ev.TrajectoryClosed {
			closed = true
		}
	}
	if !closed {
		t.Fatal("flush did not close the open trajectory")
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Add(records[0]); err == nil {
		t.Fatal("Add after Close should fail")
	}
}

// TestStreamEventTupleAsOfClose holds the tuples of stop events and closes
// their trajectories: the point layer then annotates the stored merged
// tuples, and a held event tuple, the tuple as of its episode's close, must
// not change with them.
func TestStreamEventTupleAsOfClose(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	p := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := p.NewStream()
	var stops []semitri.StreamEvent
	for _, r := range peopleRecords(t, city, 1, 1, 5) {
		events, err := sp.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.Episode != nil && ev.Episode.Kind == episode.Stop {
				stops = append(stops, ev)
			}
		}
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(stops) == 0 {
		t.Fatal("the stream emitted no stop event")
	}
	for _, ev := range stops {
		if c := ev.Tuple.Annotations.Value(core.AnnPOICategory); c != "" {
			t.Fatalf("stop %v's event tuple gained %s=%s after its close", ev.Episode.Start, core.AnnPOICategory, c)
		}
		merged, ok := p.Store().Structured(ev.TrajectoryID, semitri.InterpretationMerged)
		if !ok {
			t.Fatalf("trajectory %s has no merged interpretation", ev.TrajectoryID)
		}
		i := slices.IndexFunc(merged.Tuples, func(tp *core.EpisodeTuple) bool { return tp.Episode == ev.Episode })
		if i < 0 {
			t.Fatalf("stop %v is not in trajectory %s", ev.Episode.Start, ev.TrajectoryID)
		}
		if merged.Tuples[i].Annotations.Value(core.AnnPOICategory) == "" {
			t.Fatalf("stored stop %v has no %s", ev.Episode.Start, core.AnnPOICategory)
		}
	}
}

// TestStreamCloseErrorsMirrorBatch asserts that Close (and with it
// ProcessRecords) fails on degenerate input instead of returning an empty
// Result.
func TestStreamCloseErrorsMirrorBatch(t *testing.T) {
	city := newTestCity(t, 2, 1000)
	p := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := p.NewStream()
	if _, err := sp.Close(); err == nil {
		t.Fatal("Close with no records should fail like ProcessRecords(nil)")
	}

	// A handful of records too short for any trajectory: "no trajectories
	// identified" from either entry point.
	p2 := newTestPipeline(t, city, semitri.DefaultConfig())
	records := peopleRecords(t, city, 1, 1, 9)[:5]
	if _, err := p2.ProcessRecords(records); err == nil {
		t.Fatal("batch should fail on 5 records with MinRecords=10")
	}
	sp2 := p2.NewStream()
	if _, err := sp2.AddBatch(records); err != nil {
		t.Fatal(err)
	}
	if _, err := sp2.Close(); err == nil {
		t.Fatal("stream Close should fail on 5 records with MinRecords=10")
	}
}
