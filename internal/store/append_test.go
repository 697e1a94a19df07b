package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
)

func TestAppendEpisodes(t *testing.T) {
	s := New()
	e1 := &episode.Episode{TrajectoryID: "t1", Kind: episode.Stop, Start: t0, End: t0.Add(time.Minute)}
	e2 := &episode.Episode{TrajectoryID: "t1", Kind: episode.Move, Start: t0.Add(time.Minute), End: t0.Add(2 * time.Minute)}
	if err := s.AppendEpisodes("t1", e1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpisodes("t1", e2); err != nil {
		t.Fatal(err)
	}
	if got := s.Episodes("t1"); len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("appended episodes not preserved in order: %v", got)
	}
	if err := s.AppendEpisodes("", e1); err == nil {
		t.Fatal("empty trajectory id should be rejected")
	}
}

func TestAppendStructuredTuples(t *testing.T) {
	s := New()
	tp1 := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: t0, TimeOut: t0.Add(time.Minute)}
	tp2 := &core.EpisodeTuple{Kind: episode.Move, TimeIn: t0.Add(time.Minute), TimeOut: t0.Add(2 * time.Minute)}
	if err := s.AppendStructuredTuples("t1", "u1", "merged", tp1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStructuredTuples("t1", "u1", "merged", tp2); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Structured("t1", "merged")
	if !ok {
		t.Fatal("structured trajectory not created")
	}
	// Structured hands out copies: equal content, never the stored tuples.
	if st.ObjectID != "u1" || len(st.Tuples) != 2 || !reflect.DeepEqual(*st.Tuples[0], *tp1) ||
		!reflect.DeepEqual(*st.Tuples[1], *tp2) || st.Tuples[0] == tp1 || st.Tuples[1] == tp2 {
		t.Fatalf("appended tuples not preserved: %+v", st)
	}
	if err := s.AppendStructuredTuples("", "u1", "merged", tp1); err == nil {
		t.Fatal("empty id should be rejected")
	}
	if err := s.AppendStructuredTuples("t1", "u1", "", tp1); err == nil {
		t.Fatal("empty interpretation should be rejected")
	}
}

// TestConcurrentAppends exercises the streaming write path: many goroutines
// appending episodes and tuples to their own trajectories while readers
// query counts. Run with -race in CI.
func TestConcurrentAppends(t *testing.T) {
	s := New()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", w)
			for i := 0; i < perWorker; i++ {
				ep := &episode.Episode{TrajectoryID: id, Kind: episode.Stop}
				if err := s.AppendEpisodes(id, ep); err != nil {
					t.Error(err)
					return
				}
				tp := &core.EpisodeTuple{Kind: episode.Stop, Episode: ep}
				if err := s.AppendStructuredTuples(id, "obj", "merged", tp); err != nil {
					t.Error(err)
					return
				}
				s.EpisodeCounts()
				s.StructuredCount()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("t%d", w)
		if got := len(s.Episodes(id)); got != perWorker {
			t.Fatalf("trajectory %s: %d episodes, want %d", id, got, perWorker)
		}
		st, _ := s.Structured(id, "merged")
		if st == nil || len(st.Tuples) != perWorker {
			t.Fatalf("trajectory %s: structured tuples missing", id)
		}
	}
}
