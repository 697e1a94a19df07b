package semitri

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/line"
	"semitri/internal/obs"
	"semitri/internal/workload"
)

// testCity is shared across the package tests because building the
// synthetic environment dominates test time.
var (
	cityOnce sync.Once
	cityVal  *workload.City
	cityErr  error
)

func sharedCity(t testing.TB) *workload.City {
	t.Helper()
	cityOnce.Do(func() {
		cfg := workload.DefaultCityConfig(3, 3000)
		cityVal, cityErr = workload.NewCity(cfg)
	})
	if cityErr != nil {
		t.Fatal(cityErr)
	}
	return cityVal
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Sources{}, DefaultConfig()); err == nil {
		t.Fatal("no sources should error")
	}
	city := sharedCity(t)
	bad := DefaultConfig()
	bad.Episode.SpeedThreshold = 0
	if _, err := New(Sources{Landuse: city.Landuse}, bad); err == nil {
		t.Fatal("invalid episode config should error")
	}
	bad = DefaultConfig()
	bad.Line.CandidateRadius = -1
	if _, err := New(Sources{Roads: city.Roads}, bad); err == nil {
		t.Fatal("invalid line config should error")
	}
	bad = DefaultConfig()
	bad.Point.Sigma = -1
	if _, err := New(Sources{POIs: city.POIs}, bad); err == nil {
		t.Fatal("invalid point config should error")
	}
	// Partial sources are fine.
	if _, err := New(Sources{Landuse: city.Landuse}, DefaultConfig()); err != nil {
		t.Fatalf("landuse-only pipeline: %v", err)
	}
	if _, err := New(Sources{Roads: city.Roads}, DefaultConfig()); err != nil {
		t.Fatalf("roads-only pipeline: %v", err)
	}
}

func TestProcessRecordsPeopleEndToEnd(t *testing.T) {
	city := sharedCity(t)
	people, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(2, 2, 17))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := New(Sources{Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	metricsBefore := obs.Default().Numeric()
	result, err := pipeline.ProcessRecords(people.Records())
	if err != nil {
		t.Fatal(err)
	}
	metricsAfter := obs.Default().Numeric()
	if len(result.TrajectoryIDs) == 0 {
		t.Fatal("no trajectories processed")
	}
	if result.Stops == 0 || result.Moves == 0 {
		t.Fatalf("expected stops and moves, got %d/%d", result.Stops, result.Moves)
	}
	if result.Records == 0 {
		t.Fatal("no cleaned records reported")
	}
	st := pipeline.Store()
	if st.TrajectoryCount() != len(result.TrajectoryIDs) {
		t.Fatalf("store has %d trajectories, result reports %d", st.TrajectoryCount(), len(result.TrajectoryIDs))
	}
	stops, moves := st.EpisodeCounts()
	if stops != result.Stops || moves != result.Moves {
		t.Fatalf("store episode counts %d/%d differ from result %d/%d", stops, moves, result.Stops, result.Moves)
	}
	// Every trajectory must have the merged interpretation plus the layers
	// that apply; at least one must carry all five interpretations.
	sawAll := false
	for _, id := range result.TrajectoryIDs {
		merged, ok := st.Structured(id, InterpretationMerged)
		if !ok {
			t.Fatalf("trajectory %s has no merged interpretation", id)
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("merged trajectory %s invalid: %v", id, err)
		}
		if len(st.Interpretations(id)) >= 5 {
			sawAll = true
		}
	}
	if !sawAll {
		t.Fatal("no trajectory carries all five interpretations")
	}
	// Merged stop tuples should carry land-use and (when POIs were near)
	// category/activity annotations; move tuples should carry modes.
	var annotatedStops, annotatedMoves int
	for _, id := range result.TrajectoryIDs {
		merged, _ := st.Structured(id, InterpretationMerged)
		for _, tp := range merged.Tuples {
			if tp.Kind == episode.Stop && tp.Annotations.Value(core.AnnPOICategory) != "" {
				annotatedStops++
			}
			if tp.Kind == episode.Move && tp.Annotations.Value(core.AnnTransportMode) != "" {
				annotatedMoves++
			}
		}
	}
	if annotatedStops == 0 {
		t.Fatal("no stop carries a POI category annotation")
	}
	if annotatedMoves == 0 {
		t.Fatal("no move carries a transport mode annotation")
	}
	// The stage histograms cover the six pipeline stages of Fig. 17.
	stages := obs.IngestStageLatencies(metricsBefore, metricsAfter)
	if len(stages) != 6 {
		t.Fatalf("latency breakdown has %d stages, want 6: %+v", len(stages), stages)
	}
	for _, l := range stages {
		if l.Count == 0 || l.PerTrajectory <= 0 {
			t.Fatalf("latency breakdown missing stage %q: %+v", l.Stage, stages)
		}
	}
}

// TestStageSamplingRate pins the documented sampling rate of the per-record
// stage histograms: one object's feed times one record in 64 at every
// per-record stage.
func TestStageSamplingRate(t *testing.T) {
	city := sharedCity(t)
	people, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(1, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	records := people.Records()
	if len(records) < 4096 {
		t.Fatalf("workload produced %d records, want >= 4096", len(records))
	}
	pipeline, err := New(Sources{Landuse: city.Landuse}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Numeric()
	if _, err := pipeline.ProcessRecords(records); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Numeric()
	want := float64(len(records)) / 64
	for _, stage := range []string{"clean", "segment", "track"} {
		id := `semitri_ingest_stage_ns_count{stage="` + stage + `"}`
		if got := after[id] - before[id]; math.Abs(got-want) > 0.1*want {
			t.Errorf("stage %s timed %v of %d records, want %.0f ± 10%%", stage, got, len(records), want)
		}
	}
}

func TestProcessRecordsVehicle(t *testing.T) {
	city := sharedCity(t)
	taxi, err := workload.GenerateVehicles(city, workload.DefaultTaxiConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := VehicleConfig()
	cfg.DailySplit = false
	pipeline, err := New(Sources{Landuse: city.Landuse, Roads: city.Roads}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result, err := pipeline.ProcessRecords(taxi.Records())
	if err != nil {
		t.Fatal(err)
	}
	if len(result.TrajectoryIDs) == 0 {
		t.Fatal("no taxi trajectories")
	}
	// All move tuples must carry the trivial car mode (vehicle override).
	st := pipeline.Store()
	for _, id := range result.TrajectoryIDs {
		lineTraj, ok := st.Structured(id, InterpretationLine)
		if !ok {
			continue
		}
		for _, tp := range lineTraj.Tuples {
			if got := tp.Annotations.Value(core.AnnTransportMode); got != string(line.ModeCar) {
				t.Fatalf("vehicle pipeline mode = %q", got)
			}
		}
	}
	// Region compression: the region interpretation should be far smaller
	// than the raw record count (§5.2).
	var tuples int
	for _, id := range result.TrajectoryIDs {
		if rt, ok := st.Structured(id, InterpretationRegion); ok {
			tuples += len(rt.Tuples)
		}
	}
	if tuples == 0 {
		t.Fatal("no region tuples stored")
	}
	if float64(tuples) > 0.2*float64(result.Records) {
		t.Fatalf("region representation has %d tuples for %d records; expected strong compression", tuples, result.Records)
	}
}

func TestProcessRecordsErrors(t *testing.T) {
	city := sharedCity(t)
	pipeline, err := New(Sources{Landuse: city.Landuse}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.ProcessRecords(nil); err == nil {
		t.Fatal("no records should error")
	}
	// Too few records to form a trajectory under MinRecords.
	few := []gps.Record{{ObjectID: "u", Position: city.Extent.Center(), Time: time.Now()}}
	if _, err := pipeline.ProcessRecords(few); err == nil {
		t.Fatal("too few records should error")
	}
}

// TestProcessRecordsRoadsOnly runs a single drive through a pipeline with
// only the road network: the line layer alone must still annotate it.
func TestProcessRecordsRoadsOnly(t *testing.T) {
	city := sharedCity(t)
	drive, err := workload.GenerateDrive(city, workload.DefaultDriveConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := New(Sources{Roads: city.Roads}, VehicleConfig())
	if err != nil {
		t.Fatal(err)
	}
	result, err := pipeline.ProcessRecords(drive.PerObject["drive-001"])
	if err != nil {
		t.Fatal(err)
	}
	// The drive should be matched to many distinct segments.
	segs := map[string]bool{}
	for _, id := range result.TrajectoryIDs {
		st, ok := pipeline.Store().Structured(id, InterpretationLine)
		if !ok || len(st.Tuples) == 0 {
			t.Fatalf("line interpretation missing for %s", id)
		}
		for _, tp := range st.Tuples {
			segs[tp.PlaceID()] = true
		}
	}
	if len(segs) < 10 {
		t.Fatalf("drive matched to only %d distinct segments", len(segs))
	}
}

func TestMergedTrajectoryRendering(t *testing.T) {
	city := sharedCity(t)
	people, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(1, 1, 29))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := New(Sources{Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	result, err := pipeline.ProcessRecords(people.Records())
	if err != nil {
		t.Fatal(err)
	}
	merged, ok := pipeline.Store().Structured(result.TrajectoryIDs[0], InterpretationMerged)
	if !ok {
		t.Fatal("merged interpretation missing")
	}
	s := merged.String()
	if !strings.Contains(s, "->") || !strings.Contains(s, "(") {
		t.Fatalf("unexpected rendering: %q", s)
	}
}

func TestDominantModeAndLongestRunPlace(t *testing.T) {
	runs := []line.SegmentRun{
		{Mode: line.ModeWalk, StartIdx: 0, EndIdx: 4},
		{Mode: line.ModeMetro, StartIdx: 5, EndIdx: 40},
		{Mode: line.ModeWalk, StartIdx: 41, EndIdx: 45},
	}
	if got := dominantMode(runs); got != line.ModeMetro {
		t.Fatalf("dominantMode = %v", got)
	}
	if got := dominantMode(nil); got != "" {
		t.Fatalf("dominantMode(nil) = %q", got)
	}
	tuples := []*core.EpisodeTuple{
		{Place: &core.Place{ID: "seg-1", Kind: core.LinePlace}},
		{Place: &core.Place{ID: "seg-2", Kind: core.LinePlace}},
		{Place: &core.Place{ID: "seg-3", Kind: core.LinePlace}},
	}
	if got := longestRunPlace(runs, tuples); got == nil || got.ID != "seg-2" {
		t.Fatalf("longestRunPlace = %+v", got)
	}
	if got := longestRunPlace(nil, nil); got != nil {
		t.Fatal("empty runs should give nil")
	}
}

func TestConfigPresets(t *testing.T) {
	def := DefaultConfig()
	if !def.DailySplit || def.Workers < 1 {
		t.Fatalf("unexpected defaults: %+v", def)
	}
	veh := VehicleConfig()
	if veh.Line.VehicleMode != line.ModeCar {
		t.Fatal("vehicle preset should force the car mode")
	}
	if veh.Episode.MinStopDuration == def.Episode.MinStopDuration {
		t.Fatal("vehicle preset should use vehicle episode thresholds")
	}
}
