package store_test

import (
	"reflect"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/segment"
	"semitri/internal/store"
)

// eventIndex keeps the latest tuple each notification carried, per ref.
type eventIndex struct {
	last map[store.TupleRef]core.EpisodeTuple
}

func (x *eventIndex) TuplesAppended(events []store.TupleEvent) {
	for _, ev := range events {
		x.last[ev.Ref] = ev.Tuple
	}
}
func (x *eventIndex) StructuredReplaced(_, _, _ string, events []store.TupleEvent) {
	x.TuplesAppended(events)
}
func (x *eventIndex) TupleUpdated(ev store.TupleEvent) { x.last[ev.Ref] = ev.Tuple }

// content is what a merge can change in a tuple.
type content struct {
	place *core.Place
	anns  []core.Annotation
}

func contentOf(tp *core.EpisodeTuple) content {
	return content{place: tp.Place, anns: tp.Annotations.All()}
}

// TestReadersShareNothingWritable takes one tuple from every reader of a
// tiered store — Structured, AppendTuplesAt, the Visit*Tuples family and the
// event an attached index received — at three kinds of position: one whose
// frozen tuple stands in the merge overlay, one in the heap tail of a key
// with a frozen prefix, and one of a key that never froze. Each taken tuple
// must stay as it was across a MergeTupleAnnotations on its position, and an
// Add on it — replacing a key and adding one — must not change what the
// store reads next.
func TestReadersShareNothingWritable(t *testing.T) {
	st, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	events := &eventIndex{last: map[store.TupleRef]core.EpisodeTuple{}}
	st.AttachIndex(events)
	t0 := time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)
	appendStops := func(traj string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tp := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: t0.Add(time.Duration(i) * time.Hour),
				TimeOut: t0.Add(time.Duration(i)*time.Hour + time.Minute)}
			tp.Annotations.Add(core.Annotation{Key: "category", Value: "initial", Confidence: 0.5, Source: "append"})
			if err := st.AppendStructuredTuples(traj, "o-"+traj, "merged", tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge := func(traj string, idx int, value string) {
		t.Helper()
		place := &core.Place{ID: "p-" + value, Kind: core.PointPlace}
		if err := st.MergeTupleAnnotations(traj, "merged", idx, place, []core.Annotation{
			{Key: "category", Value: value, Confidence: 0.9, Source: "merge"},
			{Key: "merged-" + value, Value: value, Confidence: 0.9, Source: "merge"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendStops("t1", 3)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	appendStops("t1", 2)
	appendStops("t2", 1)
	merge("t1", 1, "overlay") // position 1 now reads from the overlay

	// read returns the tuple at one position as Structured reads it next.
	read := func(traj string, idx int) content {
		t.Helper()
		got, ok := st.Structured(traj, "merged")
		if !ok || idx >= len(got.Tuples) {
			t.Fatalf("Structured(%s) has no position %d", traj, idx)
		}
		return contentOf(got.Tuples[idx])
	}
	for _, pos := range []struct {
		name string
		traj string
		idx  int
	}{{"overlay", "t1", 1}, {"heap tail", "t1", 3}, {"all-heap key", "t2", 0}} {
		taken := map[string]*core.EpisodeTuple{}
		sst, _ := st.Structured(pos.traj, "merged")
		taken["Structured"] = sst.Tuples[pos.idx]
		at, ok := st.AppendTuplesAt(pos.traj, "merged", []int{pos.idx}, nil, nil)
		if !ok[0] {
			t.Fatalf("%s: AppendTuplesAt misses position %d", pos.name, pos.idx)
		}
		taken["AppendTuplesAt"] = &at[0]
		visit := func(name string) func(store.TupleRef, core.EpisodeTuple) bool {
			return func(ref store.TupleRef, tp core.EpisodeTuple) bool {
				if ref.TrajectoryID == pos.traj && ref.Index == pos.idx {
					taken[name] = &tp
				}
				return true
			}
		}
		st.VisitStructuredTuples("merged", visit("VisitStructuredTuples"))
		for seg := 0; seg < st.ColdSegmentCount(); seg++ {
			st.VisitColdSegmentTuples(seg, "merged", visit("VisitColdSegmentTuples"))
		}
		var cut store.Cut
		st.TakeCut("merged", &cut)
		for sh := 0; sh < st.ShardCount(); sh++ {
			byValue := visit("Cut.VisitShard")
			cut.VisitShard(sh, func(ref store.TupleRef, tp *core.EpisodeTuple) bool { return byValue(ref, *tp) })
		}
		ev, seen := events.last[store.TupleRef{TrajectoryID: pos.traj, ObjectID: "o-" + pos.traj,
			Interpretation: "merged", Index: pos.idx}]
		if !seen {
			t.Fatalf("%s: the index received no event for position %d", pos.name, pos.idx)
		}
		taken["TupleEvent"] = &ev
		// A position is either frozen or on the heap: one of the two
		// partitioned visits misses it.
		if len(taken) != 5 {
			t.Fatalf("%s: took tuples from %d readers, want 5", pos.name, len(taken))
		}
		before := map[string]content{}
		for reader, tp := range taken {
			before[reader] = contentOf(tp)
		}

		merge(pos.traj, pos.idx, "later")
		stored := read(pos.traj, pos.idx)
		if stored.anns[0].Value != "later" {
			t.Fatalf("%s: the merge did not land: %+v", pos.name, stored)
		}
		for reader, tp := range taken {
			if got := contentOf(tp); !reflect.DeepEqual(got, before[reader]) {
				t.Errorf("%s: the %s tuple changed under a merge:\n was %+v\n now %+v", pos.name, reader, before[reader], got)
			}
			tp.Annotations.Add(core.Annotation{Key: "category", Value: "mine", Confidence: 1})
			tp.Annotations.Add(core.Annotation{Key: "mine", Value: "mine", Confidence: 1})
			if got := read(pos.traj, pos.idx); !reflect.DeepEqual(got, stored) {
				t.Errorf("%s: an Add on the %s tuple reached the store:\n was %+v\n now %+v", pos.name, reader, stored, got)
			}
		}
	}
}
