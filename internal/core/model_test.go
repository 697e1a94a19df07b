package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"semitri/internal/episode"
	"semitri/internal/geo"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

func TestPlaceKindString(t *testing.T) {
	if RegionPlace.String() != "region" || LinePlace.String() != "line" || PointPlace.String() != "point" {
		t.Fatal("kind strings wrong")
	}
	if !strings.HasPrefix(PlaceKind(9).String(), "kind(") {
		t.Fatal("unknown kind string wrong")
	}
}

func TestPlaceValidate(t *testing.T) {
	good := Place{ID: "r1", Kind: RegionPlace, Name: "campus"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Place{Kind: RegionPlace}).Validate(); err == nil {
		t.Fatal("missing id should fail")
	}
	if err := (Place{ID: "x", Kind: PlaceKind(9)}).Validate(); err == nil {
		t.Fatal("bad kind should fail")
	}
}

func TestAnnotationSet(t *testing.T) {
	var s AnnotationSet
	if s.Len() != 0 || s.Value("x") != "" {
		t.Fatal("zero set should be empty")
	}
	s.Add(Annotation{Key: AnnLanduse, Value: "1.2", Confidence: 0.9, Source: "region"})
	s.Add(Annotation{Key: AnnTransportMode, Value: "bus", Confidence: 0.7, Source: "line"})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	a, ok := s.Get(AnnLanduse)
	if !ok || a.Value != "1.2" {
		t.Fatalf("Get = %+v, %v", a, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key should not be found")
	}
	// Lower-confidence duplicate does not replace.
	s.Add(Annotation{Key: AnnLanduse, Value: "2.7", Confidence: 0.2})
	if s.Value(AnnLanduse) != "1.2" {
		t.Fatal("lower confidence should not replace")
	}
	// Equal/higher confidence replaces.
	s.Add(Annotation{Key: AnnLanduse, Value: "1.3", Confidence: 0.95})
	if s.Value(AnnLanduse) != "1.3" {
		t.Fatal("higher confidence should replace")
	}
	if s.Len() != 2 {
		t.Fatalf("replacement should not grow the set, Len = %d", s.Len())
	}
	all := s.All()
	if len(all) != 2 || all[0].Key != AnnLanduse {
		t.Fatalf("All = %+v", all)
	}
	// Merge.
	var other AnnotationSet
	other.Add(Annotation{Key: AnnActivity, Value: "shopping", Confidence: 0.6})
	s.Merge(&other)
	if s.Len() != 3 || s.Value(AnnActivity) != "shopping" {
		t.Fatal("merge failed")
	}
	s.Merge(nil) // no-op
	if got := s.String(); !strings.Contains(got, "transport_mode=bus") {
		t.Fatalf("String = %q", got)
	}
}

// TestAnnotationSetCopyOnWrite: a copy of a set, or of a tuple holding one,
// stays as it was whatever Add, Merge or Merged do to the other copy, and
// AnnotationSetOf builds what adding its annotations one by one builds.
func TestAnnotationSetCopyOnWrite(t *testing.T) {
	anns := []Annotation{
		{Key: AnnLanduse, Value: "1.2", Confidence: 0.5},
		{Key: AnnActivity, Value: "work", Confidence: 0.9},
		{Key: AnnLanduse, Value: "1.3", Confidence: 0.4}, // loses to 0.5
		{Key: AnnActivity, Value: "shopping", Confidence: 0.9},
	}
	var added AnnotationSet
	for _, a := range anns {
		added.Add(a)
	}
	if adopted := AnnotationSetOf(slices.Clone(anns)); !reflect.DeepEqual(adopted, added) {
		t.Fatalf("AnnotationSetOf = %v, adding one by one = %v", adopted.All(), added.All())
	}
	orig := added
	want := orig.All()
	added.Add(Annotation{Key: AnnLanduse, Value: "1.4", Confidence: 1}, Annotation{Key: AnnPOIName, Value: "x"})
	var other AnnotationSet
	other.Add(Annotation{Key: AnnActivity, Value: "eat", Confidence: 1})
	added.Merge(&other)
	if !reflect.DeepEqual(orig.All(), want) {
		t.Fatalf("a copy changed under Add and Merge: %v, want %v", orig.All(), want)
	}
	if added.String() != "landuse=1.4 activity=eat poi_name=x" {
		t.Fatalf("Add and Merge built %q", added.String())
	}

	tp := makeTuple(episode.Stop, "home", "home", 0, 60)
	tp.Annotations = orig
	place := &Place{ID: "shop", Kind: PointPlace}
	merged := tp.Merged(place, []Annotation{{Key: AnnActivity, Value: "eat", Confidence: 1}})
	if tp.PlaceID() != "home" || !reflect.DeepEqual(tp.Annotations.All(), want) {
		t.Fatalf("Merged wrote its receiver: place %s, annotations %v", tp.PlaceID(), tp.Annotations.All())
	}
	if merged.PlaceID() != "shop" || merged.Annotations.Value(AnnActivity) != "eat" || merged.Annotations.Len() != 2 {
		t.Fatalf("Merged = place %s, annotations %v", merged.PlaceID(), merged.Annotations.All())
	}
	if unlinked := tp.Merged(nil, nil); unlinked.PlaceID() != "home" {
		t.Fatal("Merged with a nil place dropped the link")
	}
}

func makeTuple(kind episode.Kind, placeID, placeName string, startMin, endMin int) *EpisodeTuple {
	var place *Place
	if placeID != "" {
		place = &Place{ID: placeID, Kind: RegionPlace, Name: placeName, Extent: geo.RectAround(geo.Pt(0, 0), 10)}
	}
	return &EpisodeTuple{
		Kind:    kind,
		Place:   place,
		TimeIn:  t0.Add(time.Duration(startMin) * time.Minute),
		TimeOut: t0.Add(time.Duration(endMin) * time.Minute),
	}
}

func TestEpisodeTupleBasics(t *testing.T) {
	tp := makeTuple(episode.Stop, "home", "home", 0, 60)
	if tp.Duration() != time.Hour {
		t.Fatalf("Duration = %v", tp.Duration())
	}
	if tp.PlaceID() != "home" {
		t.Fatalf("PlaceID = %q", tp.PlaceID())
	}
	unlinked := makeTuple(episode.Move, "", "", 0, 10)
	if unlinked.PlaceID() != "" {
		t.Fatal("unlinked tuple should have empty place id")
	}
}

func TestStructuredTrajectoryValidate(t *testing.T) {
	st := &StructuredTrajectory{ID: "u1-d1", ObjectID: "u1", Interpretation: "merged",
		Tuples: []*EpisodeTuple{
			makeTuple(episode.Stop, "home", "home", 0, 60),
			makeTuple(episode.Move, "road", "road", 60, 90),
			makeTuple(episode.Stop, "office", "office", 90, 480),
		}}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&StructuredTrajectory{}).Validate() == nil {
		t.Fatal("missing id should fail")
	}
	// Reversed tuple times.
	bad := &StructuredTrajectory{ID: "x", Tuples: []*EpisodeTuple{makeTuple(episode.Stop, "a", "a", 60, 0)}}
	if bad.Validate() == nil {
		t.Fatal("reversed times should fail")
	}
	// Out-of-order tuples.
	bad2 := &StructuredTrajectory{ID: "x", Tuples: []*EpisodeTuple{
		makeTuple(episode.Stop, "a", "a", 60, 70),
		makeTuple(episode.Stop, "b", "b", 0, 10),
	}}
	if bad2.Validate() == nil {
		t.Fatal("out-of-order tuples should fail")
	}
	// Invalid linked place.
	bad3 := &StructuredTrajectory{ID: "x", Tuples: []*EpisodeTuple{
		{Kind: episode.Stop, Place: &Place{}, TimeIn: t0, TimeOut: t0},
	}}
	if bad3.Validate() == nil {
		t.Fatal("invalid place should fail")
	}
}

func TestMergeConsecutive(t *testing.T) {
	mk := func(placeID, landuse string, startMin, endMin int) *EpisodeTuple {
		tp := makeTuple(episode.Move, placeID, placeID, startMin, endMin)
		if landuse != "" {
			tp.Annotations.Add(Annotation{Key: AnnLanduse, Value: landuse, Confidence: 1})
		}
		return tp
	}
	st := &StructuredTrajectory{ID: "t", ObjectID: "u", Interpretation: "region", Tuples: []*EpisodeTuple{
		mk("cell-1", "1.2", 0, 10),
		mk("cell-1", "1.2", 10, 20), // same place and value: merged
		mk("cell-2", "1.2", 20, 30), // different place: kept
		mk("cell-2", "1.3", 30, 40), // different value: kept
	}}
	merged := st.MergeConsecutive(AnnLanduse)
	if len(merged.Tuples) != 3 {
		t.Fatalf("merged to %d tuples, want 3", len(merged.Tuples))
	}
	if merged.Tuples[0].TimeOut != t0.Add(20*time.Minute) {
		t.Fatalf("merged tuple end = %v", merged.Tuples[0].TimeOut)
	}
	// Original untouched.
	if len(st.Tuples) != 4 {
		t.Fatal("MergeConsecutive must not mutate the original")
	}
	// Merging with empty key collapses only on place+kind.
	merged2 := st.MergeConsecutive("")
	if len(merged2.Tuples) != 2 {
		t.Fatalf("place-only merge = %d tuples, want 2", len(merged2.Tuples))
	}
	// Different kinds never merge.
	st2 := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		makeTuple(episode.Stop, "p", "p", 0, 10),
		makeTuple(episode.Move, "p", "p", 10, 20),
	}}
	if got := st2.MergeConsecutive(""); len(got.Tuples) != 2 {
		t.Fatal("different kinds must not merge")
	}
	// A place-only merge folds a higher-confidence value for the same key
	// into the first tuple's copy; the input tuples keep their own values.
	st3 := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		mk("cell-1", "1.2", 0, 10),
		mk("cell-1", "1.3", 10, 20),
	}}
	st3.Tuples[1].Annotations.Add(Annotation{Key: AnnLanduse, Value: "1.3", Confidence: 2})
	merged3 := st3.MergeConsecutive("")
	if len(merged3.Tuples) != 1 || merged3.Tuples[0].Annotations.Value(AnnLanduse) != "1.3" {
		t.Fatalf("place-only merge = %d tuples, value %q", len(merged3.Tuples), merged3.Tuples[0].Annotations.Value(AnnLanduse))
	}
	if got := st3.Tuples[0].Annotations.Value(AnnLanduse); got != "1.2" {
		t.Fatalf("MergeConsecutive overwrote its input's value: %q, want 1.2", got)
	}
}

func TestTrajectoryCategoryEquation8(t *testing.T) {
	mkStop := func(cat string, startMin, endMin int) *EpisodeTuple {
		tp := makeTuple(episode.Stop, "p"+cat, cat, startMin, endMin)
		tp.Annotations.Add(Annotation{Key: AnnPOICategory, Value: cat, Confidence: 1})
		return tp
	}
	st := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		mkStop("item sale", 0, 30),
		makeTuple(episode.Move, "", "", 30, 40),
		mkStop("person life", 40, 160), // 120 min, dominates
		mkStop("item sale", 160, 200),  // 40+30=70 min total
	}}
	cat, ok := st.Category(AnnPOICategory)
	if !ok || cat != "person life" {
		t.Fatalf("Category = %q, %v", cat, ok)
	}
	// No annotated stops.
	none := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{makeTuple(episode.Move, "", "", 0, 10)}}
	if _, ok := none.Category(AnnPOICategory); ok {
		t.Fatal("trajectory without annotated stops should have no category")
	}
	// Tie resolves deterministically (alphabetical).
	tie := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		mkStop("b", 0, 10), mkStop("a", 10, 20),
	}}
	if cat, _ := tie.Category(AnnPOICategory); cat != "a" {
		t.Fatalf("tie category = %q", cat)
	}
}

func TestTrajectoryString(t *testing.T) {
	st := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		makeTuple(episode.Stop, "home", "home", 0, 60),
		func() *EpisodeTuple {
			tp := makeTuple(episode.Move, "road", "road", 60, 90)
			tp.Annotations.Add(Annotation{Key: AnnTransportMode, Value: "metro", Confidence: 1})
			return tp
		}(),
		func() *EpisodeTuple {
			tp := makeTuple(episode.Stop, "office", "office", 90, 480)
			tp.Annotations.Add(Annotation{Key: AnnActivity, Value: "work", Confidence: 1})
			return tp
		}(),
	}}
	s := st.String()
	if !strings.Contains(s, "(home, 08:00-09:00, -)") {
		t.Fatalf("String = %q", s)
	}
	if !strings.Contains(s, "metro") || !strings.Contains(s, "work") {
		t.Fatalf("String missing annotations: %q", s)
	}
	// Unnamed place falls back to id; missing place renders "-".
	st2 := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{
		{Kind: episode.Stop, Place: &Place{ID: "cell-7", Kind: RegionPlace}, TimeIn: t0, TimeOut: t0},
		{Kind: episode.Stop, TimeIn: t0, TimeOut: t0},
	}}
	s2 := st2.String()
	if !strings.Contains(s2, "cell-7") || !strings.Contains(s2, "(-,") {
		t.Fatalf("String fallback = %q", s2)
	}
	// A stop with only a POI category uses it as the extra element.
	st3 := &StructuredTrajectory{ID: "t", Tuples: []*EpisodeTuple{func() *EpisodeTuple {
		tp := makeTuple(episode.Stop, "shop", "shop", 0, 10)
		tp.Annotations.Add(Annotation{Key: AnnPOICategory, Value: "item sale", Confidence: 1})
		return tp
	}()}}
	if !strings.Contains(st3.String(), "item sale") {
		t.Fatalf("String = %q", st3.String())
	}
}
