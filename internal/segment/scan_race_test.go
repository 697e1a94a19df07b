package segment

import (
	"fmt"
	"reflect"
	"testing"

	"semitri/internal/core"
	"semitri/internal/query"
	"semitri/internal/store"
)

// TestScanBetweenWriteAndCommit scans while a freeze stands between its two
// halves: the segment is written and open, but no run of it has committed,
// so the heap still holds every tuple it copied. A
// Match scan, the grouped statements and VisitStructuredTuples must read
// each tuple exactly once — the heap's copy, since the cut's bases have not
// moved — at workers 1 and 4, and equal an all-heap store that took the
// same appends and merges; after the commit they must still equal it.
func TestScanBetweenWriteAndCommit(t *testing.T) {
	heap := store.New()
	st, tier := newTiered(t, t.TempDir(), 4)
	defer tier.Close()
	heapEng, eng := query.NewEngine(heap), query.NewEngine(st)
	eng.SetSerialThreshold(1)
	appendTuples := func(from, to int) {
		for o := 0; o < 6; o++ {
			traj := fmt.Sprintf("t-%d", o)
			for i := from; i < to; i++ {
				for _, s := range []*store.Store{heap, st} {
					tp := testTuple(traj, i)
					if err := s.AppendStructuredTuples(traj, fmt.Sprintf("obj-%d", o%4), "merged", tp); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	appendTuples(0, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 6; o += 2 { // merges into frozen positions: the overlay
		place := &core.Place{ID: fmt.Sprintf("merged-%d", o), Kind: core.PointPlace}
		anns := []core.Annotation{{Key: "poi_category", Value: "merged", Confidence: 1, Source: "test"}}
		for _, s := range []*store.Store{heap, st} {
			if err := s.MergeTupleAnnotations(fmt.Sprintf("t-%d", o), "merged", o+1, place, anns); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendTuples(10, 24)

	aggs := []query.Aggregate{
		{By: query.DimPlace, Metric: query.MetricDistinctObjects},
		{By: query.DimAnnotation, AnnKey: "poi_category"},
		{By: query.DimObject},
		{By: query.DimKind, Metric: query.MetricDuration},
	}
	check := func(label string) {
		t.Helper()
		want, err := heapEng.Execute(query.Query{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			eng.SetParallelism(w)
			got, err := eng.Execute(query.Query{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers %d: the scan returned %d matches, the all-heap store %d", label, w, len(got), len(want))
			}
			for _, a := range aggs {
				wantG, _, err := heapEng.ExecuteAggregate(query.Query{}, a)
				if err != nil {
					t.Fatal(err)
				}
				gotG, _, err := eng.ExecuteAggregate(query.Query{}, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotG, wantG) {
					t.Fatalf("%s, workers %d: group by %s %s = %+v, the all-heap store %+v", label, w, a.By, a.Metric, gotG, wantG)
				}
			}
		}
		seen := map[store.TupleRef]int{}
		st.VisitStructuredTuples("merged", func(ref store.TupleRef, _ core.EpisodeTuple) bool {
			seen[ref]++
			return true
		})
		for ref, n := range seen {
			if n != 1 {
				t.Fatalf("%s: VisitStructuredTuples read %+v %d times", label, ref, n)
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: VisitStructuredTuples read %d tuples, want %d", label, len(seen), len(want))
		}
	}

	tier.freezeMu.Lock()
	seg, mark, err := tier.write(st)
	if err != nil || mark == nil {
		tier.freezeMu.Unlock()
		t.Fatalf("write: mark %v, err %v", mark, err)
	}
	check("between write and commit")
	tier.commit(st, seg, mark)
	tier.freezeMu.Unlock()
	check("after commit")
}
