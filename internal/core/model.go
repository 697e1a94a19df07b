// Package core defines SeMiTri's semantic trajectory model (§3.1 of the
// paper): semantic places with region/line/point extents (Definition 2),
// annotations, and structured semantic trajectories made of annotated
// episodes (Definition 4). The three annotation layers (internal/region,
// internal/line, internal/point) produce values of these types, and the
// pipeline in the root package merges them into the final structured
// semantic trajectory stored in the semantic trajectory store.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"semitri/internal/episode"
	"semitri/internal/geo"
)

// PlaceKind is the geometric kind of a semantic place's extent
// (Definition 2 partitions P into Pregion, Pline and Ppoint).
type PlaceKind int

const (
	// RegionPlace has a region extent (ROI: land-use cell, campus, park).
	RegionPlace PlaceKind = iota
	// LinePlace has a line extent (LOI: road segment, metro line).
	LinePlace
	// PointPlace has a point extent (POI: shop, restaurant).
	PointPlace
)

// String implements fmt.Stringer.
func (k PlaceKind) String() string {
	switch k {
	case RegionPlace:
		return "region"
	case LinePlace:
		return "line"
	case PointPlace:
		return "point"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Place is a semantic place: a meaningful geographic object used to annotate
// trajectory data (Definition 2). Category carries the source-specific
// classification (land-use sub-category, road class, POI category).
type Place struct {
	ID       string
	Kind     PlaceKind
	Name     string
	Category string
	Extent   geo.Rect
}

// Validate checks the structural invariants of a place.
func (p Place) Validate() error {
	if p.ID == "" {
		return errors.New("core: place needs an id")
	}
	if p.Kind != RegionPlace && p.Kind != LinePlace && p.Kind != PointPlace {
		return fmt.Errorf("core: invalid place kind %d", int(p.Kind))
	}
	return nil
}

// Standard annotation keys used by the SeMiTri layers. Applications may add
// their own keys; these are the ones produced by the built-in layers.
const (
	// AnnLanduse is the land-use sub-category of the episode area (region layer).
	AnnLanduse = "landuse"
	// AnnLanduseTop is the land-use top-level class (region layer).
	AnnLanduseTop = "landuse_top"
	// AnnNamedRegion is a free-form named region covering the episode (region layer).
	AnnNamedRegion = "named_region"
	// AnnRoadClass is the class of the matched road segment (line layer).
	AnnRoadClass = "road_class"
	// AnnRoadName is the name of the matched road segment (line layer).
	AnnRoadName = "road_name"
	// AnnTransportMode is the inferred transportation mode (line layer).
	AnnTransportMode = "transport_mode"
	// AnnPOICategory is the inferred POI category behind a stop (point layer).
	AnnPOICategory = "poi_category"
	// AnnPOIName is the most likely exact POI behind a stop (point layer).
	AnnPOIName = "poi_name"
	// AnnActivity is the activity derived from the POI category (point layer).
	AnnActivity = "activity"
)

// Annotation is one additional-value annotation attached to an episode or a
// record: a key, a value and the confidence the producing layer assigns.
type Annotation struct {
	Key        string
	Value      string
	Confidence float64
	// Source identifies the layer or data source that produced the annotation.
	Source string
}

// AnnotationSet is an ordered collection of annotations with convenient
// lookup by key. The zero value is ready to use.
//
// A set is a value. Add and Merge are copy-on-write: they build a new array
// and never write into one that a copy of the set (or of the tuple holding
// it) can see, so a copy stays exactly as it was when it was taken. This is
// what lets the store hand out stored tuples without copying their
// annotations: a tuple is never written after it is published.
type AnnotationSet struct {
	items []Annotation
}

// AnnotationSetOf returns the set that adding anns one by one to an empty
// set builds, using anns' array as its own: the caller hands the slice over
// and must not write it again. Decoders use it to build a set in the one
// allocation that decoding its annotations already made.
func AnnotationSetOf(anns []Annotation) AnnotationSet {
	items := anns[:0]
	for _, a := range anns {
		items = addTo(items, a)
	}
	return AnnotationSet{items: items}
}

// Add adds annotations in order. One whose key is already present replaces
// the old annotation only if its confidence is at least as high; any other
// is appended. The set gets a new array, allocated once per call.
func (s *AnnotationSet) Add(as ...Annotation) {
	if len(as) == 0 {
		return
	}
	items := make([]Annotation, len(s.items), len(s.items)+len(as))
	copy(items, s.items)
	for _, a := range as {
		items = addTo(items, a)
	}
	s.items = items
}

// addTo applies Add's rule for one annotation to an array the caller owns.
func addTo(items []Annotation, a Annotation) []Annotation {
	for i := range items {
		if items[i].Key == a.Key {
			if a.Confidence >= items[i].Confidence {
				items[i] = a
			}
			return items
		}
	}
	return append(items, a)
}

// Get returns the annotation for the key.
func (s *AnnotationSet) Get(key string) (Annotation, bool) {
	for _, a := range s.items {
		if a.Key == key {
			return a, true
		}
	}
	return Annotation{}, false
}

// Value returns the value for the key or "" when absent.
func (s *AnnotationSet) Value(key string) string {
	a, _ := s.Get(key)
	return a.Value
}

// Len returns the number of annotations.
func (s *AnnotationSet) Len() int { return len(s.items) }

// All returns a copy of the annotations in insertion order.
func (s *AnnotationSet) All() []Annotation { return append([]Annotation(nil), s.items...) }

// Clone returns a copy of the set: a plain copy, which Add and Merge being
// copy-on-write makes independent of s.
func (s *AnnotationSet) Clone() AnnotationSet { return *s }

// Merge adds every annotation of other into s (see Add).
func (s *AnnotationSet) Merge(other *AnnotationSet) {
	if other == nil {
		return
	}
	s.Add(other.items...)
}

// String renders "key=value" pairs in insertion order.
func (s *AnnotationSet) String() string {
	parts := make([]string, len(s.items))
	for i, a := range s.items {
		parts[i] = a.Key + "=" + a.Value
	}
	return strings.Join(parts, " ")
}

// EpisodeTuple is one episode of a structured semantic trajectory
// (Definition 4): a link to a semantic place, the enter/exit times and the
// set of annotations attached to the whole episode.
type EpisodeTuple struct {
	Kind        episode.Kind
	Place       *Place
	TimeIn      time.Time
	TimeOut     time.Time
	Annotations AnnotationSet
	// Episode points back to the underlying stop/move episode (may be nil
	// for tuples produced by merging).
	Episode *episode.Episode
}

// Duration returns the temporal extent of the tuple.
func (t *EpisodeTuple) Duration() time.Duration { return t.TimeOut.Sub(t.TimeIn) }

// PlaceID returns the id of the linked place, or "" when unlinked.
func (t *EpisodeTuple) PlaceID() string {
	if t.Place == nil {
		return ""
	}
	return t.Place.ID
}

// Merged returns a copy of the tuple with anns added by AnnotationSet.Add's
// confidence-max rule and, when place is non-nil, linked to place. It is the
// one rule by which an annotation merge changes a stored tuple, live and in
// recovery alike; t is not written.
func (t *EpisodeTuple) Merged(place *Place, anns []Annotation) EpisodeTuple {
	m := *t
	if place != nil {
		m.Place = place
	}
	m.Annotations.Add(anns...)
	return m
}

// StructuredTrajectory is a structured semantic trajectory SST
// (Definition 4): the trajectory represented as a sequence of annotated
// episodes under one interpretation.
type StructuredTrajectory struct {
	ID       string
	ObjectID string
	// Interpretation names the episode list (e.g. "region", "line", "point",
	// "merged"); a trajectory may have several interpretations (§3.1).
	Interpretation string
	Tuples         []*EpisodeTuple
}

// Validate checks temporal ordering and per-tuple invariants.
func (st *StructuredTrajectory) Validate() error {
	if st.ID == "" {
		return errors.New("core: structured trajectory needs an id")
	}
	for i, tp := range st.Tuples {
		if tp.TimeOut.Before(tp.TimeIn) {
			return fmt.Errorf("core: tuple %d ends before it starts", i)
		}
		if i > 0 && tp.TimeIn.Before(st.Tuples[i-1].TimeIn) {
			return fmt.Errorf("core: tuple %d starts before tuple %d", i, i-1)
		}
		if tp.Place != nil {
			if err := tp.Place.Validate(); err != nil {
				return fmt.Errorf("core: tuple %d: %w", i, err)
			}
		}
	}
	return nil
}

// MergeConsecutive collapses consecutive tuples that link to the same place
// and carry the same value for the given annotation key (the tuple merging
// of Alg. 1 line 10-11). It returns a new trajectory; st is not written.
func (st *StructuredTrajectory) MergeConsecutive(key string) *StructuredTrajectory {
	out := &StructuredTrajectory{ID: st.ID, ObjectID: st.ObjectID, Interpretation: st.Interpretation}
	for _, tp := range st.Tuples {
		if n := len(out.Tuples); n > 0 {
			last := out.Tuples[n-1]
			samePlace := last.PlaceID() == tp.PlaceID()
			sameValue := key == "" || last.Annotations.Value(key) == tp.Annotations.Value(key)
			sameKind := last.Kind == tp.Kind
			if samePlace && sameValue && sameKind {
				last.TimeOut = tp.TimeOut
				last.Annotations.Merge(&tp.Annotations)
				continue
			}
		}
		cp := *tp
		out.Tuples = append(out.Tuples, &cp)
	}
	return out
}

// Category returns the trajectory category as defined by Equation 8 of the
// paper: the annotation value (for the given key, typically AnnPOICategory)
// that accumulates the largest total stop time. The boolean is false when no
// stop tuple carries the annotation.
func (st *StructuredTrajectory) Category(key string) (string, bool) {
	totals := map[string]time.Duration{}
	for _, tp := range st.Tuples {
		if tp.Kind != episode.Stop {
			continue
		}
		v := tp.Annotations.Value(key)
		if v == "" {
			continue
		}
		totals[v] += tp.Duration()
	}
	if len(totals) == 0 {
		return "", false
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if totals[keys[i]] != totals[keys[j]] {
			return totals[keys[i]] > totals[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[0], true
}

// String renders the trajectory as the triple sequence of §1.1, e.g.
// "(home, 08:00-09:00, -) -> (road, 09:00-10:00, on-bus)".
func (st *StructuredTrajectory) String() string {
	parts := make([]string, len(st.Tuples))
	for i, tp := range st.Tuples {
		placeName := "-"
		if tp.Place != nil {
			if tp.Place.Name != "" {
				placeName = tp.Place.Name
			} else {
				placeName = tp.Place.ID
			}
		}
		extra := "-"
		if tp.Kind == episode.Move {
			if m := tp.Annotations.Value(AnnTransportMode); m != "" {
				extra = m
			}
		} else if a := tp.Annotations.Value(AnnActivity); a != "" {
			extra = a
		} else if c := tp.Annotations.Value(AnnPOICategory); c != "" {
			extra = c
		}
		parts[i] = fmt.Sprintf("(%s, %s-%s, %s)",
			placeName, tp.TimeIn.Format("15:04"), tp.TimeOut.Format("15:04"), extra)
	}
	return strings.Join(parts, " -> ")
}
