package geojson

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

func TestPointRectFeatures(t *testing.T) {
	p := PointFeature(geo.Pt(3, 4), map[string]interface{}{"name": "stop"})
	if p.Geometry.Type != "Point" {
		t.Fatalf("point geometry = %q", p.Geometry.Type)
	}
	coords := p.Geometry.Coordinates.([]float64)
	if coords[0] != 3 || coords[1] != 4 {
		t.Fatalf("point coords = %v", coords)
	}
	r := RectFeature(geo.NewRect(geo.Pt(0, 0), geo.Pt(2, 2)), nil)
	ring := r.Geometry.Coordinates.([][][]float64)
	if r.Geometry.Type != "Polygon" || len(ring[0]) != 5 {
		t.Fatalf("rect feature = %+v", r)
	}
	if ring[0][0][0] != ring[0][4][0] || ring[0][0][1] != ring[0][4][1] {
		t.Fatal("polygon ring must be closed")
	}
}

func TestStructuredExport(t *testing.T) {
	st := &core.StructuredTrajectory{ID: "u1-T0", ObjectID: "u1", Interpretation: "merged"}
	stop := &core.EpisodeTuple{
		Kind:    episode.Stop,
		Place:   &core.Place{ID: "poi-9", Kind: core.PointPlace, Name: "mall", Extent: geo.RectAround(geo.Pt(50, 50), 10)},
		TimeIn:  t0,
		TimeOut: t0.Add(time.Hour),
	}
	stop.Annotations.Add(core.Annotation{Key: core.AnnPOICategory, Value: "item sale", Confidence: 0.9})
	move := &core.EpisodeTuple{
		Kind:    episode.Move,
		Place:   &core.Place{ID: "seg-3", Kind: core.LinePlace, Name: "main", Extent: geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 10))},
		TimeIn:  t0.Add(time.Hour),
		TimeOut: t0.Add(2 * time.Hour),
	}
	bare := &core.EpisodeTuple{Kind: episode.Move, TimeIn: t0.Add(2 * time.Hour), TimeOut: t0.Add(3 * time.Hour)}
	stopNoPlace := &core.EpisodeTuple{
		Kind:    episode.Stop,
		Episode: &episode.Episode{Center: geo.Pt(7, 7)},
		TimeIn:  t0.Add(3 * time.Hour),
		TimeOut: t0.Add(4 * time.Hour),
	}
	st.Tuples = []*core.EpisodeTuple{stop, move, bare, stopNoPlace}
	fc := Structured(st)
	if fc.Len() != 4 {
		t.Fatalf("features = %d", fc.Len())
	}
	if err := fc.Validate(); err != nil {
		t.Fatal(err)
	}
	if fc.Features[0].Geometry.Type != "Point" || fc.Features[1].Geometry.Type != "Polygon" {
		t.Fatalf("types = %q, %q", fc.Features[0].Geometry.Type, fc.Features[1].Geometry.Type)
	}
	if fc.Features[0].Properties["ann_poi_category"] != "item sale" {
		t.Fatalf("annotation property missing: %+v", fc.Features[0].Properties)
	}
	if fc.Features[2].Properties["no_geometry"] != true {
		t.Fatal("bare tuple should be flagged as having no geometry")
	}
	if fc.Features[3].Geometry.Type != "Point" {
		t.Fatal("stop without place should fall back to the episode centre")
	}
	// Output must be valid JSON and mention the place name.
	data, err := fc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("output is not valid JSON")
	}
	if !strings.Contains(string(data), `"mall"`) {
		t.Fatal("place name missing from output")
	}
}

func TestValidateErrors(t *testing.T) {
	fc := &FeatureCollection{Type: "wrong"}
	if fc.Validate() == nil {
		t.Fatal("wrong collection type should fail")
	}
	fc = NewFeatureCollection()
	fc.Add(Feature{Type: "bogus", Geometry: Geometry{Type: "Point", Coordinates: []float64{0, 0}}})
	if fc.Validate() == nil {
		t.Fatal("wrong feature type should fail")
	}
	fc = NewFeatureCollection()
	fc.Add(Feature{Type: "Feature", Geometry: Geometry{Type: "Circle", Coordinates: []float64{0, 0}}})
	if fc.Validate() == nil {
		t.Fatal("unknown geometry type should fail")
	}
	fc = NewFeatureCollection()
	fc.Add(Feature{Type: "Feature", Geometry: Geometry{Type: "Point"}})
	if fc.Validate() == nil {
		t.Fatal("missing coordinates should fail")
	}
	if NewFeatureCollection().Validate() != nil {
		t.Fatal("empty collection should be valid")
	}
}
