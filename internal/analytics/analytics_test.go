package analytics

import (
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

// seedStore populates a store with two users, two trajectories each, plus
// episodes and structured interpretations, mimicking what the pipeline
// writes.
func seedStore(t *testing.T) (*store.Store, []string) {
	t.Helper()
	s := store.New()
	objects := []string{"user-001", "user-002"}
	for ui, obj := range objects {
		for ti := 0; ti < 2; ti++ {
			id := obj + "-T" + string(rune('0'+ti))
			nRecs := 100 * (ui + 1)
			recs := make([]gps.Record, nRecs)
			for i := range recs {
				recs[i] = gps.Record{ObjectID: obj, Position: geo.Pt(float64(i), 0), Time: t0.Add(time.Duration(i) * time.Second)}
			}
			start := s.PutRecords(recs)
			if err := s.PutTrajectory(id, obj, start, len(recs)); err != nil {
				t.Fatal(err)
			}
			eps := []*episode.Episode{
				{TrajectoryID: id, ObjectID: obj, Kind: episode.Stop, RecordCount: 40,
					Start: t0, End: t0.Add(30 * time.Minute), Center: geo.Pt(10, 0)},
				{TrajectoryID: id, ObjectID: obj, Kind: episode.Move, RecordCount: 60,
					Start: t0.Add(30 * time.Minute), End: t0.Add(60 * time.Minute), Center: geo.Pt(50, 0)},
			}
			if err := s.PutEpisodes(id, eps); err != nil {
				t.Fatal(err)
			}
			// Region (record-level, merged) interpretation: 3 tuples.
			regionTraj := &core.StructuredTrajectory{ID: id, ObjectID: obj, Interpretation: "region"}
			for k := 0; k < 3; k++ {
				regionTraj.Tuples = append(regionTraj.Tuples, &core.EpisodeTuple{
					Kind: episode.Move, TimeIn: t0.Add(time.Duration(k) * time.Minute), TimeOut: t0.Add(time.Duration(k+1) * time.Minute)})
			}
			if err := s.PutStructured(regionTraj); err != nil {
				t.Fatal(err)
			}
			// Region-episodes interpretation with land-use annotations.
			regionEp := &core.StructuredTrajectory{ID: id, ObjectID: obj, Interpretation: "region-episodes"}
			stopTuple := &core.EpisodeTuple{Kind: episode.Stop, Episode: eps[0], TimeIn: eps[0].Start, TimeOut: eps[0].End}
			stopTuple.Annotations.Add(core.Annotation{Key: core.AnnLanduse, Value: "1.2", Confidence: 1})
			moveTuple := &core.EpisodeTuple{Kind: episode.Move, Episode: eps[1], TimeIn: eps[1].Start, TimeOut: eps[1].End}
			moveTuple.Annotations.Add(core.Annotation{Key: core.AnnLanduse, Value: "1.3", Confidence: 1})
			regionEp.Tuples = []*core.EpisodeTuple{stopTuple, moveTuple}
			if err := s.PutStructured(regionEp); err != nil {
				t.Fatal(err)
			}
			// Merged interpretation with POI category and mode annotations.
			merged := &core.StructuredTrajectory{ID: id, ObjectID: obj, Interpretation: "merged"}
			ms := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: eps[0].Start, TimeOut: eps[0].End}
			cat := "item sale"
			if ui == 1 {
				cat = "person life"
			}
			ms.Annotations.Add(core.Annotation{Key: core.AnnPOICategory, Value: cat, Confidence: 0.8})
			mm := &core.EpisodeTuple{Kind: episode.Move, TimeIn: eps[1].Start, TimeOut: eps[1].End}
			mm.Annotations.Add(core.Annotation{Key: core.AnnTransportMode, Value: "metro", Confidence: 0.9})
			merged.Tuples = []*core.EpisodeTuple{ms, mm}
			if err := s.PutStructured(merged); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, objects
}

func TestEpisodeSizeDistributions(t *testing.T) {
	s, _ := seedStore(t)
	trajs, moves, stops := EpisodeSizeDistributions(s)
	if trajs.Total() != 4 {
		t.Fatalf("trajectory histogram total = %d", trajs.Total())
	}
	if moves.Total() != 4 || stops.Total() != 4 {
		t.Fatalf("episode histogram totals = %d/%d", moves.Total(), stops.Total())
	}
	if len(trajs.Bins()) == 0 {
		t.Fatal("trajectory histogram has no bins")
	}
}

func TestPerUserCounts(t *testing.T) {
	s, objects := seedStore(t)
	counts := PerUserCounts(s, objects)
	if len(counts) != 2 {
		t.Fatalf("counts = %d", len(counts))
	}
	for _, c := range counts {
		if c.Trajectories != 2 || c.Stops != 2 || c.Moves != 2 {
			t.Fatalf("user %s counts = %+v", c.Object, c)
		}
	}
	if counts[0].GPSRecords != 200 || counts[1].GPSRecords != 400 {
		t.Fatalf("GPS record counts = %d, %d", counts[0].GPSRecords, counts[1].GPSRecords)
	}
	if got := PerUserCounts(s, nil); len(got) != 0 {
		t.Fatal("no objects should give empty counts")
	}
}

func TestAnnotationAndStopCountDistributions(t *testing.T) {
	s, _ := seedStore(t)
	d := AnnotationDistribution(s, "merged", core.AnnPOICategory)
	if d.Total() == 0 {
		t.Fatal("empty annotation distribution")
	}
	// Both categories appear, equal stop time, so equal shares.
	if d.Share("item sale") != 0.5 || d.Share("person life") != 0.5 {
		t.Fatalf("shares = %v", d.Shares())
	}
	if got := AnnotationDistribution(s, "missing", core.AnnPOICategory); got.Total() != 0 {
		t.Fatal("missing interpretation should be empty")
	}
	sc := StopCountDistribution(s, "merged", core.AnnPOICategory)
	if sc.Total() != 4 {
		t.Fatalf("stop count total = %v", sc.Total())
	}
	if got := StopCountDistribution(s, "missing", core.AnnPOICategory); got.Total() != 0 {
		t.Fatal("missing interpretation should be empty")
	}
}

func TestTrajectoryCategoryDistribution(t *testing.T) {
	s, _ := seedStore(t)
	d := TrajectoryCategoryDistribution(s, "merged", core.AnnPOICategory)
	if d.Total() != 4 {
		t.Fatalf("trajectory category total = %v", d.Total())
	}
	if d.Share("item sale") != 0.5 || d.Share("person life") != 0.5 {
		t.Fatalf("trajectory category shares = %v", d.Shares())
	}
}

func TestLanduseDistribution(t *testing.T) {
	s, objects := seedStore(t)
	all := LanduseDistribution(s, nil, nil)
	if all.Total() != 400 { // 4 trajectories x (40 + 60) record weights
		t.Fatalf("landuse total = %v", all.Total())
	}
	if all.Share("1.2") != 0.4 || all.Share("1.3") != 0.6 {
		t.Fatalf("landuse shares = %v", all.Shares())
	}
	stopKind := episode.Stop
	stopsOnly := LanduseDistribution(s, nil, &stopKind)
	if stopsOnly.Share("1.2") != 1 {
		t.Fatalf("stop landuse shares = %v", stopsOnly.Shares())
	}
	oneUser := LanduseDistribution(s, objects[:1], nil)
	if oneUser.Total() != 200 {
		t.Fatalf("per-user landuse total = %v", oneUser.Total())
	}
}

func TestCompression(t *testing.T) {
	s, _ := seedStore(t)
	c := Compression(s)
	if c.GPSRecords != 600 { // 2*(100+200)
		t.Fatalf("GPSRecords = %d", c.GPSRecords)
	}
	if c.RegionTuples != 12 {
		t.Fatalf("RegionTuples = %d", c.RegionTuples)
	}
	if c.Ratio < 0.97 || c.Ratio > 1 {
		t.Fatalf("Ratio = %v", c.Ratio)
	}
	empty := Compression(store.New())
	if empty.Ratio != 0 || empty.GPSRecords != 0 {
		t.Fatalf("empty store compression = %+v", empty)
	}
}

func TestModeDistribution(t *testing.T) {
	s, _ := seedStore(t)
	d := ModeDistribution(s, "merged")
	if d.Share("metro") != 1 {
		t.Fatalf("mode shares = %v", d.Shares())
	}
	if got := ModeDistribution(s, "missing"); got.Total() != 0 {
		t.Fatal("missing interpretation should be empty")
	}
}
