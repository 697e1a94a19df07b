// Package geojson exports structured semantic trajectories as GeoJSON
// FeatureCollections. It replaces the paper's web visualisation interface
// ([31], Apache/Tomcat + Google Earth KML) with a dependency-free exporter
// whose output can be dropped into any modern map viewer; cmd/semitri uses
// it for -geojson.
//
// Coordinates are written in the planar working frame (metres), the frame
// every ingest path uses.
package geojson

import (
	"encoding/json"
	"fmt"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
)

// Feature is a GeoJSON feature with a geometry and free-form properties.
type Feature struct {
	Type       string                 `json:"type"`
	Geometry   Geometry               `json:"geometry"`
	Properties map[string]interface{} `json:"properties,omitempty"`
}

// Geometry is a GeoJSON geometry (Point or Polygon).
type Geometry struct {
	Type        string      `json:"type"`
	Coordinates interface{} `json:"coordinates"`
}

// FeatureCollection is a GeoJSON feature collection.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewFeatureCollection returns an empty collection.
func NewFeatureCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection"}
}

// Add appends a feature to the collection.
func (fc *FeatureCollection) Add(f Feature) { fc.Features = append(fc.Features, f) }

// Len returns the number of features.
func (fc *FeatureCollection) Len() int { return len(fc.Features) }

// MarshalIndent renders the collection as pretty-printed JSON.
func (fc *FeatureCollection) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(fc, "", " ")
}

// coordinate converts a planar point to a GeoJSON coordinate pair.
func coordinate(p geo.Point) []float64 { return []float64{p.X, p.Y} }

// PointFeature builds a Point feature.
func PointFeature(p geo.Point, props map[string]interface{}) Feature {
	return Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "Point", Coordinates: coordinate(p)},
		Properties: props,
	}
}

// RectFeature builds a Polygon feature from a rectangle.
func RectFeature(r geo.Rect, props map[string]interface{}) Feature {
	ring := [][]float64{
		coordinate(r.Min),
		coordinate(geo.Pt(r.Max.X, r.Min.Y)),
		coordinate(r.Max),
		coordinate(geo.Pt(r.Min.X, r.Max.Y)),
		coordinate(r.Min),
	}
	return Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "Polygon", Coordinates: [][][]float64{ring}},
		Properties: props,
	}
}

// Structured exports a structured semantic trajectory: every tuple becomes a
// feature (a Point at the place centre for stops, the place extent outline
// for moves) carrying the tuple's annotations as properties.
func Structured(st *core.StructuredTrajectory) *FeatureCollection {
	fc := NewFeatureCollection()
	for i, tp := range st.Tuples {
		props := map[string]interface{}{
			"kind":           tp.Kind.String(),
			"index":          i,
			"trajectory":     st.ID,
			"interpretation": st.Interpretation,
			"time_in":        tp.TimeIn,
			"time_out":       tp.TimeOut,
		}
		if tp.Place != nil {
			props["place_id"] = tp.Place.ID
			props["place_name"] = tp.Place.Name
			props["place_category"] = tp.Place.Category
		}
		for _, a := range tp.Annotations.All() {
			props["ann_"+a.Key] = a.Value
		}
		var extent geo.Rect
		if tp.Place != nil {
			extent = tp.Place.Extent
		}
		switch {
		case tp.Kind == episode.Stop && tp.Place != nil:
			fc.Add(PointFeature(extent.Center(), props))
		case tp.Kind == episode.Stop && tp.Episode != nil:
			fc.Add(PointFeature(tp.Episode.Center, props))
		case tp.Place != nil && !extent.IsEmpty():
			fc.Add(RectFeature(extent, props))
		case tp.Episode != nil:
			fc.Add(PointFeature(tp.Episode.Center, props))
		default:
			// A tuple with neither a place nor an episode has no geometry;
			// it is still exported as a null-island point so no information
			// silently disappears from the export.
			props["no_geometry"] = true
			fc.Add(PointFeature(geo.Pt(0, 0), props))
		}
	}
	return fc
}

// Validate performs a light structural check on a collection (useful in
// tests and before writing files): types are set and coordinates are finite.
func (fc *FeatureCollection) Validate() error {
	if fc.Type != "FeatureCollection" {
		return fmt.Errorf("geojson: collection type %q", fc.Type)
	}
	for i, f := range fc.Features {
		if f.Type != "Feature" {
			return fmt.Errorf("geojson: feature %d type %q", i, f.Type)
		}
		switch f.Geometry.Type {
		case "Point", "LineString", "Polygon":
		default:
			return fmt.Errorf("geojson: feature %d geometry type %q", i, f.Geometry.Type)
		}
		if f.Geometry.Coordinates == nil {
			return fmt.Errorf("geojson: feature %d has no coordinates", i)
		}
	}
	return nil
}
