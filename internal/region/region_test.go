package region

import (
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/landuse"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

// testMap builds a 1km x 1km map split into a building west half and a
// transportation east half, with a campus polygon in the north-west corner.
func testMap(t *testing.T) *landuse.Map {
	t.Helper()
	m, err := landuse.NewMap(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCategoryRect(geo.NewRect(geo.Pt(0, 0), geo.Pt(499, 999)), landuse.Building)
	m.SetCategoryRect(geo.NewRect(geo.Pt(500, 0), geo.Pt(999, 999)), landuse.Transportation)
	m.AddNamedRegion(landuse.NamedRegion{
		Name: "campus", Kind: "campus",
		Polygon: geo.Polygon{geo.Pt(0, 800), geo.Pt(200, 800), geo.Pt(200, 1000), geo.Pt(0, 1000)},
	})
	return m
}

func record(x, y float64, offsetSec int) gps.Record {
	return gps.Record{ObjectID: "u1", Position: geo.Pt(x, y), Time: t0.Add(time.Duration(offsetSec) * time.Second)}
}

func TestNewAnnotator(t *testing.T) {
	if _, err := NewAnnotator(nil); err == nil {
		t.Fatal("nil map should error")
	}
	if _, err := NewAnnotator(testMap(t)); err != nil {
		t.Fatal(err)
	}
}

func TestAnnotateTrajectoryGroupsByCategory(t *testing.T) {
	a, _ := NewAnnotator(testMap(t))
	tr := &gps.RawTrajectory{ID: "u1-T0", ObjectID: "u1", Records: []gps.Record{
		record(100, 100, 0), record(200, 100, 10), record(300, 100, 20), // building
		record(600, 100, 30), record(700, 100, 40), // transportation
		record(400, 100, 50), // back to building
	}}
	st, err := a.AnnotateTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Interpretation != "region" || st.ID != tr.ID {
		t.Fatalf("trajectory meta = %q %q", st.Interpretation, st.ID)
	}
	if len(st.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3 (building, transportation, building)", len(st.Tuples))
	}
	if st.Tuples[0].Annotations.Value(core.AnnLanduse) != string(landuse.Building) {
		t.Fatalf("first tuple landuse = %q", st.Tuples[0].Annotations.Value(core.AnnLanduse))
	}
	if st.Tuples[1].Annotations.Value(core.AnnLanduse) != string(landuse.Transportation) {
		t.Fatalf("second tuple landuse = %q", st.Tuples[1].Annotations.Value(core.AnnLanduse))
	}
	if st.Tuples[0].TimeIn != t0 || st.Tuples[0].TimeOut != t0.Add(20*time.Second) {
		t.Fatalf("first tuple times = %v-%v", st.Tuples[0].TimeIn, st.Tuples[0].TimeOut)
	}
	if st.Tuples[0].Annotations.Value(core.AnnLanduseTop) == "" {
		t.Fatal("top-level landuse annotation missing")
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("structured trajectory invalid: %v", err)
	}
	// Places must be linked and of region kind.
	for i, tp := range st.Tuples {
		if tp.Place == nil || tp.Place.Kind != core.RegionPlace {
			t.Fatalf("tuple %d place = %+v", i, tp.Place)
		}
	}
}

func TestAnnotateTrajectoryOutsideMap(t *testing.T) {
	a, _ := NewAnnotator(testMap(t))
	tr := &gps.RawTrajectory{ID: "u1-T0", ObjectID: "u1", Records: []gps.Record{
		record(100, 100, 0), record(5000, 5000, 10), record(200, 100, 20),
	}}
	st, err := a.AnnotateTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3", len(st.Tuples))
	}
	if st.Tuples[1].Place != nil {
		t.Fatal("outside record should produce an unlinked tuple")
	}
	if _, err := a.AnnotateTrajectory(nil); err == nil {
		t.Fatal("nil trajectory should error")
	}
	if _, err := a.AnnotateTrajectory(&gps.RawTrajectory{ID: "x"}); err == nil {
		t.Fatal("empty trajectory should error")
	}
}

func makeEpisode(kind episode.Kind, center geo.Point, startMin, endMin, records int) *episode.Episode {
	return &episode.Episode{
		TrajectoryID: "u1-T0",
		ObjectID:     "u1",
		Kind:         kind,
		Start:        t0.Add(time.Duration(startMin) * time.Minute),
		End:          t0.Add(time.Duration(endMin) * time.Minute),
		Center:       center,
		Bounds:       geo.RectAround(center, 50),
		RecordCount:  records,
	}
}

func TestAnnotateEpisodes(t *testing.T) {
	a, _ := NewAnnotator(testMap(t))
	eps := []*episode.Episode{
		makeEpisode(episode.Stop, geo.Pt(100, 900), 0, 60, 100),  // building + campus
		makeEpisode(episode.Move, geo.Pt(550, 500), 60, 90, 50),  // straddles both halves
		makeEpisode(episode.Stop, geo.Pt(700, 100), 90, 480, 80), // transportation
	}
	tuples, err := a.AnnotateEpisodes(eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 {
		t.Fatalf("tuples = %d", len(tuples))
	}
	if got := tuples[0].Annotations.Value(core.AnnLanduse); got != string(landuse.Building) {
		t.Fatalf("stop 1 landuse = %q", got)
	}
	if got := tuples[0].Annotations.Value(core.AnnNamedRegion); got != "campus" {
		t.Fatalf("stop 1 named region = %q", got)
	}
	if got := tuples[2].Annotations.Value(core.AnnLanduse); got != string(landuse.Transportation) {
		t.Fatalf("stop 2 landuse = %q", got)
	}
	if tuples[2].Annotations.Value(core.AnnNamedRegion) != "" {
		t.Fatal("stop 2 should not be in a named region")
	}
	// Move episode gets the dominant category of its bounding box.
	if got := tuples[1].Annotations.Value(core.AnnLanduse); got == "" {
		t.Fatal("move episode should carry a landuse annotation")
	}
	if tuples[1].Kind != episode.Move || tuples[1].Episode != eps[1] {
		t.Fatal("move tuple should keep its kind and back-reference")
	}
	if _, err := a.AnnotateEpisodes(nil); err == nil {
		t.Fatal("no episodes should error")
	}
}

func TestAnnotateEpisodesOutsideMap(t *testing.T) {
	a, _ := NewAnnotator(testMap(t))
	eps := []*episode.Episode{makeEpisode(episode.Stop, geo.Pt(9000, 9000), 0, 10, 5)}
	tuples, err := a.AnnotateEpisodes(eps)
	if err != nil {
		t.Fatal(err)
	}
	if tuples[0].Annotations.Value(core.AnnLanduse) != "" {
		t.Fatal("outside stop should carry no landuse annotation")
	}
	if tuples[0].Place != nil {
		t.Fatal("outside stop should not link a place")
	}
}
