package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

func sampleTrajectory(id, object string, n int) *gps.RawTrajectory {
	recs := make([]gps.Record, n)
	for i := range recs {
		recs[i] = gps.Record{ObjectID: object, Position: geo.Pt(float64(i), 0), Time: t0.Add(time.Duration(i) * time.Second)}
	}
	return &gps.RawTrajectory{ID: id, ObjectID: object, Records: recs}
}

// putSampleTrajectory appends n sample records to object's record run and
// stores a trajectory over exactly them; it returns the trajectory as
// Trajectory reads it back.
func putSampleTrajectory(t testing.TB, s *Store, id, object string, n int) *gps.RawTrajectory {
	t.Helper()
	tr := sampleTrajectory(id, object, n)
	if err := s.PutTrajectory(id, object, s.PutRecords(tr.Records), n); err != nil {
		t.Fatal(err)
	}
	return tr
}

func sampleStructured(id, object, interp string) *core.StructuredTrajectory {
	st := &core.StructuredTrajectory{ID: id, ObjectID: object, Interpretation: interp}
	stop := &core.EpisodeTuple{
		Kind:    episode.Stop,
		Place:   &core.Place{ID: "poi-1", Kind: core.PointPlace, Name: "mall"},
		TimeIn:  t0,
		TimeOut: t0.Add(30 * time.Minute),
	}
	stop.Annotations.Add(core.Annotation{Key: core.AnnPOICategory, Value: "item sale", Confidence: 0.8, Source: "point"})
	move := &core.EpisodeTuple{
		Kind:    episode.Move,
		Place:   &core.Place{ID: "seg-4", Kind: core.LinePlace, Name: "main"},
		TimeIn:  t0.Add(30 * time.Minute),
		TimeOut: t0.Add(45 * time.Minute),
	}
	move.Annotations.Add(core.Annotation{Key: core.AnnTransportMode, Value: "bus", Confidence: 0.9, Source: "line"})
	st.Tuples = []*core.EpisodeTuple{stop, move}
	return st
}

func TestRecordsTable(t *testing.T) {
	s := New()
	if s.RecordCount() != 0 {
		t.Fatal("new store should be empty")
	}
	s.PutRecords([]gps.Record{
		{ObjectID: "u1", Position: geo.Pt(1, 1), Time: t0},
		{ObjectID: "u1", Position: geo.Pt(2, 2), Time: t0.Add(time.Second)},
		{ObjectID: "u2", Position: geo.Pt(3, 3), Time: t0},
	})
	if s.RecordCount() != 3 {
		t.Fatalf("RecordCount = %d", s.RecordCount())
	}
	if got := s.Records("u1"); len(got) != 2 {
		t.Fatalf("Records(u1) = %d", len(got))
	}
	if got := s.Records("missing"); len(got) != 0 {
		t.Fatal("missing object should have no records")
	}
	// Returned slice is a copy.
	recs := s.Records("u1")
	recs[0].ObjectID = "mutated"
	if s.Records("u1")[0].ObjectID != "u1" {
		t.Fatal("Records must return a copy")
	}
}

func TestTrajectoryTable(t *testing.T) {
	s := New()
	if err := s.PutTrajectory("", "u1", 0, 0); err == nil {
		t.Fatal("missing id should error")
	}
	tr := putSampleTrajectory(t, s, "u1-T0", "u1", 10)
	putSampleTrajectory(t, s, "u1-T1", "u1", 5)
	putSampleTrajectory(t, s, "u2-T0", "u2", 5)
	if s.TrajectoryCount() != 3 {
		t.Fatalf("TrajectoryCount = %d", s.TrajectoryCount())
	}
	got, ok := s.Trajectory("u1-T0")
	if !ok || !reflect.DeepEqual(got, tr) {
		t.Fatal("Trajectory lookup failed")
	}
	if obj, n, first, last, ok := s.TrajectoryExtent("u1-T0"); !ok || obj != "u1" || n != 10 ||
		first != tr.Records[0].Time || last != tr.Records[9].Time {
		t.Fatalf("TrajectoryExtent(u1-T0) = %q %d %v %v %v", obj, n, first, last, ok)
	}
	if _, _, _, _, ok := s.TrajectoryExtent("nope"); ok {
		t.Fatal("missing trajectory should have no extent")
	}
	if n, ok := s.TrajectoryLen("u1-T0"); !ok || n != 10 {
		t.Fatalf("TrajectoryLen(u1-T0) = %d %v", n, ok)
	}
	if _, ok := s.TrajectoryLen("nope"); ok {
		t.Fatal("missing trajectory should have no length")
	}
	if _, ok := s.Trajectory("nope"); ok {
		t.Fatal("missing trajectory should not be found")
	}
	if ids := s.TrajectoryIDs("u1"); len(ids) != 2 || ids[0] != "u1-T0" {
		t.Fatalf("TrajectoryIDs(u1) = %v", ids)
	}
	if ids := s.TrajectoryIDs(""); len(ids) != 3 {
		t.Fatalf("TrajectoryIDs(all) = %v", ids)
	}
	// Re-putting the same id does not duplicate the object index.
	if err := s.PutTrajectory("u1-T0", "u1", 0, 10); err != nil {
		t.Fatal(err)
	}
	if ids := s.TrajectoryIDs("u1"); len(ids) != 2 {
		t.Fatalf("duplicate put changed ids: %v", ids)
	}
}

func TestEpisodesTable(t *testing.T) {
	s := New()
	if err := s.PutEpisodes("", nil); err == nil {
		t.Fatal("empty trajectory id should error")
	}
	eps := []*episode.Episode{
		{TrajectoryID: "u1-T0", Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute)},
		{TrajectoryID: "u1-T0", Kind: episode.Move, Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute)},
		{TrajectoryID: "u1-T0", Kind: episode.Stop, Start: t0.Add(2 * time.Minute), End: t0.Add(3 * time.Minute)},
	}
	if err := s.PutEpisodes("u1-T0", eps); err != nil {
		t.Fatal(err)
	}
	if got := s.Episodes("u1-T0"); len(got) != 3 {
		t.Fatalf("Episodes = %d", len(got))
	}
	if got := s.Episodes("missing"); len(got) != 0 {
		t.Fatal("missing trajectory should have no episodes")
	}
	stops, moves := s.EpisodeCounts()
	if stops != 2 || moves != 1 {
		t.Fatalf("EpisodeCounts = %d, %d", stops, moves)
	}
	// Replacement semantics.
	if err := s.PutEpisodes("u1-T0", eps[:1]); err != nil {
		t.Fatal(err)
	}
	if got := s.Episodes("u1-T0"); len(got) != 1 {
		t.Fatalf("episodes after replacement = %d", len(got))
	}
}

func TestStructuredTable(t *testing.T) {
	s := New()
	if err := s.PutStructured(nil); err == nil {
		t.Fatal("nil structured should error")
	}
	if err := s.PutStructured(&core.StructuredTrajectory{ID: "x"}); err == nil {
		t.Fatal("missing interpretation should error")
	}
	if err := s.PutStructured(&core.StructuredTrajectory{Interpretation: "region"}); err == nil {
		t.Fatal("missing id should error")
	}
	st := sampleStructured("u1-T0", "u1", "merged")
	if err := s.PutStructured(st); err != nil {
		t.Fatal(err)
	}
	if err := s.PutStructured(sampleStructured("u1-T0", "u1", "region")); err != nil {
		t.Fatal(err)
	}
	if s.StructuredCount() != 2 {
		t.Fatalf("StructuredCount = %d", s.StructuredCount())
	}
	got, ok := s.Structured("u1-T0", "merged")
	// Structured hands out a copy: equal content, never the stored object.
	if !ok || got == st || !reflect.DeepEqual(got, st) {
		t.Fatal("Structured lookup failed")
	}
	if _, ok := s.Structured("u1-T0", "point"); ok {
		t.Fatal("missing interpretation should not be found")
	}
	if _, ok := s.Structured("zzz", "merged"); ok {
		t.Fatal("missing trajectory should not be found")
	}
	if interps := s.Interpretations("u1-T0"); len(interps) != 2 || interps[0] != "merged" {
		t.Fatalf("Interpretations = %v", interps)
	}
	if ids := s.StructuredIDs(); len(ids) != 1 || ids[0] != "u1-T0" {
		t.Fatalf("StructuredIDs = %v", ids)
	}
	if err := s.PutStructured(sampleStructured("a-T0", "a", "merged")); err != nil {
		t.Fatal(err)
	}
	if ids := s.StructuredIDs(); len(ids) != 2 || ids[0] != "a-T0" {
		t.Fatalf("StructuredIDs after second put = %v", ids)
	}
	if ids := New().StructuredIDs(); len(ids) != 0 {
		t.Fatalf("empty store StructuredIDs = %v", ids)
	}
}

func TestQueries(t *testing.T) {
	s := New()
	s.PutStructured(sampleStructured("u1-T0", "u1", "merged"))
	s.PutStructured(sampleStructured("u2-T0", "u2", "merged"))
	annotatedStops := func(interp, value string) int {
		n := 0
		s.VisitStructuredTuples(interp, func(_ TupleRef, tp core.EpisodeTuple) bool {
			if tp.Kind == episode.Stop && tp.Annotations.Value(core.AnnPOICategory) == value {
				n++
			}
			return true
		})
		return n
	}
	if hits := annotatedStops("merged", "item sale"); hits != 2 {
		t.Fatalf("annotated stop scan = %d", hits)
	}
	if got := annotatedStops("merged", "feedings"); got != 0 {
		t.Fatal("no stops should match feedings")
	}
	if got := annotatedStops("region", "item sale"); got != 0 {
		t.Fatal("missing interpretation should match nothing")
	}
	window := func(traj, interp string, from, to time.Time) []*core.EpisodeTuple {
		st, ok := s.Structured(traj, interp)
		if !ok {
			return nil
		}
		var out []*core.EpisodeTuple
		for _, tp := range st.Tuples {
			if tp.TimeIn.Before(to) && tp.TimeOut.After(from) {
				out = append(out, tp)
			}
		}
		return out
	}
	got := window("u1-T0", "merged", t0.Add(10*time.Minute), t0.Add(20*time.Minute))
	if len(got) != 1 || got[0].Kind != episode.Stop {
		t.Fatalf("window query = %+v", got)
	}
	if all := window("u1-T0", "merged", t0, t0.Add(2*time.Hour)); len(all) != 2 {
		t.Fatalf("full window = %d", len(all))
	}
	if got := window("u1-T0", "merged", t0.Add(5*time.Hour), t0.Add(6*time.Hour)); len(got) != 0 {
		t.Fatal("disjoint window should match nothing")
	}
	if got := window("nope", "merged", t0, t0.Add(time.Hour)); got != nil {
		t.Fatal("missing trajectory window should be nil")
	}
}

// TestSaveDocument decodes the JSON export with plain encoding/json (nothing
// in the repository reads it back) and checks every table made it out.
func TestSaveDocument(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "store.json")
	s := New()
	s.PutRecords([]gps.Record{{ObjectID: "u1", Position: geo.Pt(1.5, 2.5), Time: t0}})
	putSampleTrajectory(t, s, "u1-T0", "u1", 5)
	s.PutEpisodes("u1-T0", []*episode.Episode{
		{TrajectoryID: "u1-T0", Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute), RecordCount: 5},
	})
	s.PutStructured(sampleStructured("u1-T0", "u1", "merged"))
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Records      map[string][]jsonRecord          `json:"records"`
		Trajectories []jsonTrajectory                 `json:"trajectories"`
		Episodes     map[string][]*episode.Episode    `json:"episodes"`
		Structured   map[string]map[string]jsonStruct `json:"structured"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if recs := doc.Records["u1"]; len(recs) != 6 || recs[0].X != 1.5 || recs[0].Y != 2.5 || !recs[0].Time.Equal(t0) {
		t.Fatalf("exported records = %+v", doc.Records)
	}
	if len(doc.Trajectories) != 1 || doc.Trajectories[0].ID != "u1-T0" ||
		doc.Trajectories[0].ObjectID != "u1" || len(doc.Trajectories[0].Records) != 5 {
		t.Fatalf("exported trajectories = %+v", doc.Trajectories)
	}
	if eps := doc.Episodes["u1-T0"]; len(eps) != 1 || eps[0].RecordCount != 5 {
		t.Fatalf("exported episodes = %+v", doc.Episodes)
	}
	st := doc.Structured["u1-T0"]["merged"]
	if st.ObjectID != "u1" || len(st.Tuples) != 2 {
		t.Fatalf("exported structured = %+v", st)
	}
	if tp := st.Tuples[0]; tp.Kind != "stop" || len(tp.Annotations) == 0 ||
		tp.Annotations[0].Key != core.AnnPOICategory || tp.Annotations[0].Value != "item sale" {
		t.Fatalf("exported stop tuple = %+v", tp)
	}
	if tp := st.Tuples[1]; tp.Kind != "move" || tp.Place == nil || tp.Place.Name != "main" {
		t.Fatalf("exported move tuple = %+v", tp)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pos := s.PutRecords([]gps.Record{{ObjectID: "obj", Position: geo.Pt(float64(i), 0), Time: t0}})
				if err := s.PutTrajectory("tr-"+string(rune('a'+w))+"-"+time.Duration(i).String(), "obj", pos, 1); err != nil {
					t.Error(err)
					return
				}
				s.TrajectoryIDs("obj")
				s.RecordCount()
			}
		}(w)
	}
	wg.Wait()
	if s.RecordCount() != 8*50 {
		t.Fatalf("RecordCount = %d", s.RecordCount())
	}
	if s.TrajectoryCount() != 8*50 {
		t.Fatalf("TrajectoryCount = %d", s.TrajectoryCount())
	}
}
