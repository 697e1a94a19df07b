package store

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// populate fills a store with a deterministic multi-object workload: objects
// u00..u<n-1>, three raw records each with two overlapping trajectories
// over them, episodes and two interpretations per trajectory.
func populate(t *testing.T, s *Store, objects int) (trajIDs []string) {
	t.Helper()
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("u%02d", o)
		s.PutRecords([]gps.Record{
			{ObjectID: obj, Position: geo.Pt(float64(o), 0), Time: t0},
			{ObjectID: obj, Position: geo.Pt(float64(o), 1), Time: t0.Add(time.Second)},
			{ObjectID: obj, Position: geo.Pt(float64(o), 2), Time: t0.Add(2 * time.Second)},
		})
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("%s-T%04d", obj, k)
			trajIDs = append(trajIDs, id)
			if err := s.PutTrajectory(id, obj, k, 2); err != nil {
				t.Fatal(err)
			}
			eps := []*episode.Episode{
				{TrajectoryID: id, Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute)},
				{TrajectoryID: id, Kind: episode.Move, Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute)},
			}
			if err := s.PutEpisodes(id, eps); err != nil {
				t.Fatal(err)
			}
			if err := s.PutStructured(sampleStructured(id, obj, "merged")); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendStructuredTuples(id, obj, "line",
				&core.EpisodeTuple{Kind: episode.Move, TimeIn: t0, TimeOut: t0.Add(time.Minute)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trajIDs
}

// TestShardedMatchesSingleStripe runs the same workload against a 1-stripe
// store (the historical single-mutex layout) and a many-stripe store and
// asserts every query answers identically — the striping must be invisible
// through the public API.
func TestShardedMatchesSingleStripe(t *testing.T) {
	single := NewSharded(1)
	striped := NewSharded(7) // deliberately not a power of two
	idsA := populate(t, single, 9)
	idsB := populate(t, striped, 9)
	if !reflect.DeepEqual(idsA, idsB) {
		t.Fatal("populate not deterministic")
	}

	if a, b := single.RecordCount(), striped.RecordCount(); a != b {
		t.Fatalf("RecordCount: %d vs %d", a, b)
	}
	if a, b := single.TrajectoryCount(), striped.TrajectoryCount(); a != b {
		t.Fatalf("TrajectoryCount: %d vs %d", a, b)
	}
	as, am := single.EpisodeCounts()
	bs, bm := striped.EpisodeCounts()
	if as != bs || am != bm {
		t.Fatalf("EpisodeCounts: %d/%d vs %d/%d", as, am, bs, bm)
	}
	if a, b := single.StructuredCount(), striped.StructuredCount(); a != b {
		t.Fatalf("StructuredCount: %d vs %d", a, b)
	}
	if a, b := single.TrajectoryIDs(""), striped.TrajectoryIDs(""); !reflect.DeepEqual(a, b) {
		t.Fatalf("TrajectoryIDs(\"\"): %v vs %v", a, b)
	}
	if a, b := single.TrajectoryIDs("u03"), striped.TrajectoryIDs("u03"); !reflect.DeepEqual(a, b) {
		t.Fatalf("TrajectoryIDs(u03): %v vs %v", a, b)
	}
	if a, b := single.StructuredIDs(), striped.StructuredIDs(); !reflect.DeepEqual(a, b) {
		t.Fatalf("StructuredIDs: %v vs %v", a, b)
	}
	for _, id := range idsA {
		if a, b := single.Episodes(id), striped.Episodes(id); len(a) != len(b) {
			t.Fatalf("Episodes(%s): %d vs %d", id, len(a), len(b))
		}
		if a, b := single.Interpretations(id), striped.Interpretations(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("Interpretations(%s): %v vs %v", id, a, b)
		}
	}
	annotatedStops := func(s *Store) int {
		n := 0
		s.VisitStructuredTuples("merged", func(_ TupleRef, tp core.EpisodeTuple) bool {
			if tp.Kind == episode.Stop && tp.Annotations.Value(core.AnnPOICategory) == "item sale" {
				n++
			}
			return true
		})
		return n
	}
	if qa, qb := annotatedStops(single), annotatedStops(striped); qa != qb || qa == 0 {
		t.Fatalf("annotated stop scan: %d vs %d hits", qa, qb)
	}
}

// TestRunningTotals exercises the counter maintenance paths that are easy to
// get wrong: PutEpisodes replacing a shorter/longer sequence, PutStructured
// overwriting an existing interpretation, appends creating interpretations.
func TestRunningTotals(t *testing.T) {
	s := New()
	eps := []*episode.Episode{
		{TrajectoryID: "t1", Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute)},
		{TrajectoryID: "t1", Kind: episode.Move, Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute)},
		{TrajectoryID: "t1", Kind: episode.Stop, Start: t0.Add(2 * time.Minute), End: t0.Add(3 * time.Minute)},
	}
	if err := s.PutEpisodes("t1", eps); err != nil {
		t.Fatal(err)
	}
	if stops, moves := s.EpisodeCounts(); stops != 2 || moves != 1 {
		t.Fatalf("after put: stops=%d moves=%d", stops, moves)
	}
	// Replacement must not double-count.
	if err := s.PutEpisodes("t1", eps[:1]); err != nil {
		t.Fatal(err)
	}
	if stops, moves := s.EpisodeCounts(); stops != 1 || moves != 0 {
		t.Fatalf("after replace: stops=%d moves=%d", stops, moves)
	}
	if err := s.AppendEpisodes("t1", eps[1], eps[2]); err != nil {
		t.Fatal(err)
	}
	if stops, moves := s.EpisodeCounts(); stops != 2 || moves != 1 {
		t.Fatalf("after append: stops=%d moves=%d", stops, moves)
	}

	// Overwriting an interpretation keeps the count; new ones bump it.
	if err := s.PutStructured(sampleStructured("t1", "u1", "merged")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutStructured(sampleStructured("t1", "u1", "merged")); err != nil {
		t.Fatal(err)
	}
	if got := s.StructuredCount(); got != 1 {
		t.Fatalf("StructuredCount after overwrite = %d", got)
	}
	if err := s.AppendStructuredTuples("t1", "u1", "line"); err != nil {
		t.Fatal(err)
	}
	if got := s.StructuredCount(); got != 2 {
		t.Fatalf("StructuredCount after append-create = %d", got)
	}
}

// TestConcurrentObjectWrites hammers the store from one goroutine per object
// — the access pattern the lock striping exists for — and checks the running
// totals and per-object tables afterwards. Run under -race this doubles as
// the striping data-race test.
func TestConcurrentObjectWrites(t *testing.T) {
	s := New()
	const objects = 16
	const trajPerObject = 5
	var wg sync.WaitGroup
	for o := 0; o < objects; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			obj := fmt.Sprintf("obj%02d", o)
			for k := 0; k < trajPerObject; k++ {
				id := fmt.Sprintf("%s-T%04d", obj, k)
				pos := s.PutRecords([]gps.Record{{ObjectID: obj, Position: geo.Pt(float64(k), 0), Time: t0.Add(time.Duration(k) * time.Second)}})
				if err := s.PutTrajectory(id, obj, pos, 1); err != nil {
					t.Error(err)
					return
				}
				if err := s.AppendEpisodes(id,
					&episode.Episode{TrajectoryID: id, Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute)}); err != nil {
					t.Error(err)
					return
				}
				if err := s.AppendStructuredTuples(id, obj, "merged",
					&core.EpisodeTuple{Kind: episode.Stop, TimeIn: t0, TimeOut: t0.Add(time.Minute)}); err != nil {
					t.Error(err)
					return
				}
				// Interleave reads with the writes of other goroutines.
				_ = s.RecordCount()
				_ = s.TrajectoryIDs(obj)
			}
		}(o)
	}
	wg.Wait()

	if got := s.RecordCount(); got != objects*trajPerObject {
		t.Fatalf("RecordCount = %d, want %d", got, objects*trajPerObject)
	}
	if got := s.TrajectoryCount(); got != objects*trajPerObject {
		t.Fatalf("TrajectoryCount = %d, want %d", got, objects*trajPerObject)
	}
	if stops, moves := s.EpisodeCounts(); stops != objects*trajPerObject || moves != 0 {
		t.Fatalf("EpisodeCounts = %d/%d", stops, moves)
	}
	if got := s.StructuredCount(); got != objects*trajPerObject {
		t.Fatalf("StructuredCount = %d", got)
	}
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("obj%02d", o)
		if got := len(s.TrajectoryIDs(obj)); got != trajPerObject {
			t.Fatalf("TrajectoryIDs(%s) = %d", obj, got)
		}
	}
}

// TestSaveDuringConcurrentAppends runs Save in a loop while writers append
// tuples to the same trajectories. Under -race this pins down that Save
// reads each key through a view taken under the stripe lock (appends write
// the stored trajectory's slice header, so reading it unlocked would race).
func TestSaveDuringConcurrentAppends(t *testing.T) {
	s := New()
	path := filepath.Join(t.TempDir(), "live.json")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obj := fmt.Sprintf("u%d", w)
			id := fmt.Sprintf("%s-T0000", obj)
			for i := 0; i < 2000; i++ {
				if err := s.AppendStructuredTuples(id, obj, "merged",
					&core.EpisodeTuple{Kind: episode.Stop, TimeIn: t0, TimeOut: t0.Add(time.Minute)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s.Save(path); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if data, err := os.ReadFile(path); err != nil || !json.Valid(data) {
		t.Fatalf("export written beside appends is not well-formed JSON (read err %v)", err)
	}
}

// TestSaveAcrossShardCounts asserts the export is shard-layout independent:
// the same content saved from differently striped stores is byte-identical.
func TestSaveAcrossShardCounts(t *testing.T) {
	var want []byte
	for _, shards := range []int{5, 1, DefaultShards} {
		s := NewSharded(shards)
		populate(t, s, 6)
		path := filepath.Join(t.TempDir(), "export.json")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("export from %d shards differs from the 5-shard one (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}
