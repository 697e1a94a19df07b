package query

// Property tests for the tiered storage engine's query surface: a store with
// frozen segments must answer every query exactly like an all-heap store —
// same refs, same tuple bytes, same order — at every worker count, with the
// freeze points chosen at random and the merge overlay in play.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/segment"
	"semitri/internal/store"
)

// cloneTuple copies a tuple with its own place and episode, so the heap and
// tiered stores share no pointer (the annotation set needs no copying: it is
// copy-on-write).
func cloneTuple(tp *core.EpisodeTuple) *core.EpisodeTuple {
	cp := *tp
	if tp.Place != nil {
		p := *tp.Place
		cp.Place = &p
	}
	if tp.Episode != nil {
		e := *tp.Episode
		cp.Episode = &e
	}
	return &cp
}

// inUTC returns a copy of tp with its times in UTC, as a segment restores
// them.
func inUTC(tp *core.EpisodeTuple) *core.EpisodeTuple {
	cp := cloneTuple(tp)
	cp.TimeIn, cp.TimeOut = cp.TimeIn.UTC(), cp.TimeOut.UTC()
	if cp.Episode != nil {
		cp.Episode.Start, cp.Episode.End = cp.Episode.Start.UTC(), cp.Episode.End.UTC()
	}
	return cp
}

// TestTieredEngineMatchesHeap replays one workload into an all-heap store
// and into a tiered store with random freeze points, merges annotations into
// frozen and hot tuples on both, then checks that every random query returns
// reflect.DeepEqual answers at workers 1, 2, 4 and 8. The workload includes
// the far object, whose times lie outside the years UnixNano can represent,
// so segments holding them must keep exact time spans in their footers.
func TestTieredEngineMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	heap := store.NewSharded(8)
	heapEng := NewEngine(heap)
	all := populate(t, heap, 42, 6, 3, 12)
	for _, s := range populateFar(t, store.New()) {
		tp := inUTC(s.tp)
		if err := heap.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID, s.ref.Interpretation, tp); err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{ref: s.ref, tp: tp})
	}

	tiered, tier, _, err := segment.Recover(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	tieredEng := NewEngine(tiered) // live maintenance across freezes
	for _, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID,
			s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(30) == 0 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Identical merges on both stores: on the tiered one, merges into frozen
	// positions land in the overlay rather than the heap.
	for i := 0; i < 25; i++ {
		s := all[rng.Intn(len(all))]
		anns := []core.Annotation{{Key: "activity", Value: fmt.Sprintf("act%d", i%4),
			Confidence: 0.5, Source: "prop"}}
		if err := heap.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, nil, anns); err != nil {
			t.Fatal(err)
		}
		if err := tiered.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, nil, anns); err != nil {
			t.Fatal(err)
		}
		if i == 12 {
			// Mid-merge freeze: earlier overlay entries get written out as
			// merge frames, later ones overlay the new segment.
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	if tier.SegmentCount() == 0 {
		t.Fatal("workload never froze a segment")
	}

	for i := 0; i < 150; i++ {
		q := randomQuery(rng)
		want, err := heapEng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			tieredEng.SetParallelism(w)
			got, err := tieredEng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%+v) workers=%d: tiered answer diverges from heap\nheap   %d matches\ntiered %d matches",
					i, q, w, len(want), len(got))
			}
		}
	}
}

// TestTieredFilteredScanMatchesHeap checks the decode-time kind and time
// filter of cold scans, and the ranged keyed resolve, against an all-heap
// store. The tiered store freezes five times, takes merges into frozen
// positions (the overlay) and keeps a live heap tail; kind-only,
// time-window and kind+time scans, whose window ends lie on, or a
// nanosecond beside, a stored tuple's times (so windows start, end and fall
// inside frozen runs), and object and annotation queries, which resolve ref
// batches, must return reflect.DeepEqual answers.
func TestTieredFilteredScanMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	heap := store.NewSharded(4)
	heapEng := NewEngine(heap)
	all := populate(t, heap, 43, 6, 3, 15)
	tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	tieredEng := NewEngine(tiered)
	frozen := len(all) * 4 / 5
	for i, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID,
			s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(frozen/5) == 0 && i < frozen {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tier.SegmentCount() != 5 {
		t.Fatalf("froze %d segments, want 5", tier.SegmentCount())
	}
	for i := 0; i < 30; i++ {
		s := all[rng.Intn(frozen)]
		anns := []core.Annotation{{Key: core.AnnPOICategory, Value: fmt.Sprintf("merged%d", i%3),
			Confidence: 2, Source: "prop"}}
		for _, st := range []*store.Store{heap, tiered} {
			if err := st.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, nil, anns); err != nil {
				t.Fatal(err)
			}
		}
	}
	if overlaid(tiered, tier, all) == 0 {
		t.Fatal("no merge landed in the overlay")
	}

	// stamp is a random stored tuple's TimeIn or TimeOut, or a nanosecond
	// beside it.
	stamp := func() time.Time {
		tp := all[rng.Intn(len(all))].tp
		at := tp.TimeIn
		if rng.Intn(2) == 0 {
			at = tp.TimeOut
		}
		return at.Add(time.Duration(rng.Intn(3) - 1))
	}
	paths := map[Path]int{}
	for i := 0; i < 300; i++ {
		var q Query
		switch i % 5 {
		case 0, 1, 2: // scans: kind only, time window, kind and time window
			if i%5 != 1 {
				k := episode.Kind(rng.Intn(2))
				q.Kind = &k
			}
			if i%5 != 0 {
				q.From, q.To = stamp(), stamp()
				if q.To.Before(q.From) {
					q.From, q.To = q.To, q.From
				}
			}
		case 3: // one object's time window
			q.ObjectID = fmt.Sprintf("u%d", rng.Intn(6))
			q.From = stamp()
			q.To = q.From.Add(time.Duration(rng.Intn(48)) * time.Hour)
		case 4: // an annotation, through the inverted index
			q.AnnKey, q.AnnValue = core.AnnPOICategory, fmt.Sprintf("merged%d", rng.Intn(3))
			if rng.Intn(2) == 0 {
				q.AnnValue = "shop"
			}
		}
		plan, err := tieredEng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 < 3 && plan.Path != PathScan {
			t.Fatalf("query %d (%+v) planned as %s, want a scan", i, q, plan.Path)
		}
		paths[plan.Path]++
		want, err := heapEng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			tieredEng.SetParallelism(w)
			got, err := tieredEng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%+v) workers=%d: tiered answer diverges from heap: %d matches, want %d",
					i, q, w, len(got), len(want))
			}
		}
	}
	if paths[PathObjectTime] == 0 || paths[PathAnnotation] == 0 {
		t.Fatalf("no query resolved a ref batch: plans %v", paths)
	}
}

// TestTieredUntimedTupleNotPruned freezes an untimed stop followed by a stop
// at t0 into one segment: the run's time span must start at the zero time,
// so a window ending before t0 still finds the untimed stop in the frozen
// tier, as it does in the heap.
func TestTieredUntimedTupleNotPruned(t *testing.T) {
	heap := store.New()
	tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	untimed := mkTuple(episode.Stop, time.Time{}, t0, geo.Pt(10, 10))
	timed := mkTuple(episode.Stop, t0, t0.Add(time.Hour), geo.Pt(20, 20))
	for _, st := range []*store.Store{heap, tiered} {
		for _, tp := range []*core.EpisodeTuple{untimed, timed} {
			if err := st.AppendStructuredTuples("u-T0", "u", DefaultInterpretation, cloneTuple(tp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	q := Query{To: t0.Add(-time.Hour)}
	want, err := NewEngine(heap).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(tiered).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("window ending before t0: heap %d matches, tiered %d, want 1 from each", len(want), len(got))
	}
}

// TestTieredRecoveredEngineMatchesHeap closes the tier mid-life and recovers
// from segments + nothing else, then re-checks query equality — the recovered
// store must be indistinguishable from the one that never restarted.
func TestTieredRecoveredEngineMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	heap := store.NewSharded(4)
	heapEng := NewEngine(heap)
	all := populate(t, heap, 41, 6, 3, 10)

	dir := t.TempDir()
	tiered, tier, _, err := segment.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID,
			s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(40) == 0 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, tier2, _, err := segment.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	recEng := NewEngine(recovered) // backfill from cold segments
	for i := 0; i < 80; i++ {
		q := randomQuery(rng)
		want, err := heapEng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			recEng.SetParallelism(w)
			got, err := recEng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%+v) workers=%d after recovery: %d matches, want %d",
					i, q, w, len(got), len(want))
			}
		}
	}
}

// TestTieredFreezeQueryRace runs ingestion, freezes and queries concurrently
// (meant for -race): results must stay strictly ordered and duplicate-free
// throughout; every full scan, at workers 1 and 4 in turn, must return of
// each key exactly the positions [0, n) for some n, since the writer only
// appends, so a freeze racing the scan can neither hide nor repeat a tuple;
// and after quiescence a full scan must equal brute force.
func TestTieredFreezeQueryRace(t *testing.T) {
	st, tier, _, err := segment.Recover(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	e := NewEngine(st)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: live ingestion during freezes and queries
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		at := t0
		for i := 0; i < 4000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			obj := fmt.Sprintf("u%d", i%4)
			id := fmt.Sprintf("%s-T%d", obj, i%2)
			kind := episode.Stop
			anns := []core.Annotation{ann(core.AnnPOICategory, "shop")}
			if i%2 == 1 {
				kind = episode.Move
				anns = []core.Annotation{ann(core.AnnTransportMode, "walk")}
			}
			end := at.Add(time.Duration(1+rng.Intn(10)) * time.Minute)
			tp := mkTuple(kind, at, end, geo.Pt(rng.Float64()*2000, rng.Float64()*2000), anns...)
			if err := st.AppendStructuredTuples(id, obj, DefaultInterpretation, tp); err != nil {
				t.Error(err)
				return
			}
			at = end
		}
	}()
	wg.Add(1)
	go func() { // freezer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tier.Freeze(st); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) { // queriers
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms, err := e.Execute(randomQuery(rng))
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(ms); j++ {
					if !ms[j-1].less(&ms[j]) {
						t.Errorf("results unordered or duplicated at %d", j)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	wg.Add(1)
	go func() { // full scans, checked for gaps
		defer wg.Done()
		for w := 1; ; w = 5 - w {
			select {
			case <-stop:
				return
			default:
			}
			e.SetParallelism(w)
			ms, err := e.Execute(Query{})
			if err != nil {
				t.Error(err)
				return
			}
			next := map[[2]string]int{}
			for _, m := range ms {
				k := [2]string{m.Ref.TrajectoryID, m.Ref.Interpretation}
				if m.Ref.Index != next[k] {
					t.Errorf("workers %d: a full scan read %v at position %d, want %d", w, k, m.Ref.Index, next[k])
					return
				}
				next[k]++
			}
		}
	}()
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent check: one more freeze, then a full scan must match a
	// brute-force walk of the store exactly.
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	ms, err := e.Execute(Query{})
	if err != nil {
		t.Fatal(err)
	}
	var want []store.TupleRef
	st.VisitStructuredTuples(DefaultInterpretation, func(ref store.TupleRef, _ core.EpisodeTuple) bool {
		want = append(want, ref)
		return true
	})
	sameRefSet(t, "post-race full scan", gotRefs(ms), want)
}

// bruteKey is the test's own group-key extraction, written from the
// dimensions' documented meaning.
func bruteKey(a Aggregate, m *Match) (string, bool) {
	switch a.By {
	case DimObject:
		return m.Ref.ObjectID, true
	case DimTrajectory:
		return m.Ref.TrajectoryID, true
	case DimKind:
		return m.Tuple.Kind.String(), true
	case DimPlace:
		if m.Tuple.Place == nil || m.Tuple.Place.ID == "" {
			return "", false
		}
		return m.Tuple.Place.ID, true
	case DimAnnotation:
		v := m.Tuple.Annotations.Value(a.AnnKey)
		return v, v != ""
	}
	return "", false
}

// bruteAggregate folds matches with bruteGroups.
func bruteAggregate(a Aggregate, ms []Match) []Group {
	var rows []struct {
		key string
		obj string
		dur time.Duration
	}
	for i := range ms {
		m := &ms[i]
		if key, ok := bruteKey(a, m); ok {
			rows = append(rows, struct {
				key string
				obj string
				dur time.Duration
			}{key, m.Ref.ObjectID, m.Tuple.TimeOut.Sub(m.Tuple.TimeIn)})
		}
	}
	return bruteGroups(a, rows)
}

// TestExecuteAggregateMatchesBruteForce checks the fold that runs inside
// the access paths (ExecuteAggregate) against brute force over Execute's
// matches, on an all-heap store and on a tiered one with five segments, a
// live heap tail and merges into frozen positions that change a tuple's
// place and POI category (the overlay, which a projected cold decode must
// still apply). Every dimension × metric with a random top-K, over scans,
// indexed paths and trajectory walks, with and without a limit (which caps
// the rows before the fold), at workers 1 and 4, must give the groups the
// heap store's matches give, and the plan Explain gives.
func TestExecuteAggregateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	heap := store.NewSharded(4)
	heapEng := NewEngine(heap)
	all := populate(t, heap, 47, 6, 3, 15)
	tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	tieredEng := NewEngine(tiered)
	frozen := len(all) * 4 / 5
	for i, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID,
			s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(frozen/5) == 0 && i < frozen {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i++ {
		s := all[rng.Intn(len(all))]
		place := &core.Place{ID: fmt.Sprintf("poi-%d", i%7), Kind: core.PointPlace}
		anns := []core.Annotation{{Key: core.AnnPOICategory, Value: fmt.Sprintf("merged%d", i%3),
			Confidence: 2, Source: "prop"}}
		for _, st := range []*store.Store{heap, tiered} {
			if err := st.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, place, anns); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := overlaid(tiered, tier, all); tier.SegmentCount() != 5 || n == 0 {
		t.Fatalf("%d segments and %d overlay entries, want 5 and some", tier.SegmentCount(), n)
	}

	dims := []Aggregate{
		{By: DimObject}, {By: DimTrajectory}, {By: DimKind}, {By: DimPlace},
		{By: DimAnnotation, AnnKey: core.AnnPOICategory},
		{By: DimAnnotation, AnnKey: core.AnnTransportMode},
	}
	metrics := []Metric{"", MetricCount, MetricDistinctObjects, MetricDuration}
	stop := episode.Stop
	queries := []Query{{}, {Kind: &stop}, {From: t0.Add(20 * time.Hour), To: t0.Add(30 * time.Hour)}}
	for len(queries) < 24 {
		queries = append(queries, randomQuery(rng))
	}
	paths := map[Path]int{}
	for i, q := range queries {
		for _, limit := range []int{0, 1 + rng.Intn(20)} {
			q.Limit = limit
			ms, err := heapEng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range dims {
				for _, m := range metrics {
					a := base
					a.Metric, a.K = m, rng.Intn(4)
					want := bruteAggregate(a, ms)
					for _, e := range []*Engine{heapEng, tieredEng} {
						explain, err := e.Explain(q)
						if err != nil {
							t.Fatal(err)
						}
						paths[explain.Path]++
						for _, w := range []int{1, 4} {
							e.SetParallelism(w)
							got, plan, err := e.ExecuteAggregate(q, a)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("query %d (%+v) by %s/%s metric %q top %d, tiered %v, workers %d",
								i, q, a.By, a.AnnKey, m, a.K, e == tieredEng, w)
							sameGroups(t, label, got, want)
							if plan.String() != explain.String() {
								t.Fatalf("%s: plan %q, Explain %q", label, plan, explain)
							}
						}
					}
				}
			}
		}
	}
	for _, p := range []Path{PathScan, PathAnnotation, PathObjectTime, PathTrajectory} {
		if paths[p] == 0 {
			t.Fatalf("no query took the %s path: %v", p, paths)
		}
	}
}

// TestTieredRunSkipMatchesHeap checks the cold scan's run skip — a run
// whose directory kinds and span the form's kind and time clauses refuse is
// not read — against an all-heap store. The tiered store freezes into
// several segments, takes merges into frozen positions and a replace of a
// frozen trajectory, and every seventh tuple is untimed. Random forms, with
// lo > hi among them (the tuples spanning the gap), open sides and
// windows ending on or beside a stored time, must scan to the same sorted
// matches and, projected for a grouped statement, to the same groups, at
// workers 1 and 4.
func TestTieredRunSkipMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	all := populate(t, store.New(), 44, 6, 3, 14)
	for i := range all {
		if i%7 == 3 {
			tp := cloneTuple(all[i].tp)
			tp.TimeIn, tp.TimeOut = time.Time{}, time.Time{}
			all[i].tp = tp
		}
	}
	heap := store.NewSharded(4)
	tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i, s := range all {
		for _, st := range []*store.Store{heap, tiered} {
			if err := st.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID, s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
				t.Fatal(err)
			}
		}
		if (i+1)%(len(all)/5) == 0 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		s := all[rng.Intn(len(all)*4/5)]
		anns := []core.Annotation{{Key: core.AnnPOICategory, Value: fmt.Sprintf("merged%d", i%3), Confidence: 2, Source: "prop"}}
		for _, st := range []*store.Store{heap, tiered} {
			if err := st.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, nil, anns); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Replace one frozen trajectory with its tuples in reverse, then freeze
	// the replacement too.
	replaced := &core.StructuredTrajectory{ID: all[0].ref.TrajectoryID, ObjectID: all[0].ref.ObjectID, Interpretation: DefaultInterpretation}
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].ref.TrajectoryID == replaced.ID {
			replaced.Tuples = append(replaced.Tuples, all[i].tp)
		}
	}
	for _, st := range []*store.Store{heap, tiered} {
		cp := *replaced
		cp.Tuples = nil
		for _, tp := range replaced.Tuples {
			cp.Tuples = append(cp.Tuples, cloneTuple(tp))
		}
		if err := st.PutStructured(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	if n, ov := tier.SegmentCount(), overlaid(tiered, tier, all); n < 5 || ov == 0 {
		t.Fatalf("%d segments and %d overlay entries, want at least 5 and 1", n, ov)
	}

	heapEng, tieredEng := NewEngine(heap), NewEngine(tiered)
	bound := func() stamp {
		switch rng.Intn(8) {
		case 0:
			return stampOf(time.Time{})
		case 1:
			return openLo
		case 2:
			return openHi
		}
		tp := all[rng.Intn(len(all))].tp
		at := tp.TimeIn
		if rng.Intn(2) == 0 {
			at = tp.TimeOut
		}
		return stampOf(at.Add(time.Duration(rng.Intn(3) - 1)))
	}
	kinds := []kindSet{allKinds, stopKind, moveKind}
	a := Aggregate{By: DimAnnotation, AnnKey: core.AnnPOICategory}
	scan := func(e *Engine, f *form, agg *Aggregate, workers int) any {
		s := &sink{}
		if agg != nil {
			s.agg, s.groups = agg, newGroups(agg)
		}
		e.scan(f, s, workers)
		if agg != nil {
			return agg.rank(s.groups)
		}
		sort.Sort(byRef(s.out))
		return s.out
	}
	gaps := 0
	for i := 0; i < 200; i++ {
		f := form{interp: DefaultInterpretation, kinds: kinds[rng.Intn(len(kinds))], lo: bound(), hi: bound()}
		if f.hi.before(f.lo) {
			gaps++
		}
		for _, agg := range []*Aggregate{nil, &a} {
			want := scan(heapEng, &f, agg, 1)
			for _, w := range []int{1, 4} {
				if got := scan(tieredEng, &f, agg, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("form %d (kinds %b, lo %v, hi %v, grouped %v) workers=%d: tiered scan diverges from heap",
						i, f.kinds, f.lo, f.hi, agg != nil, w)
				}
			}
		}
	}
	if gaps == 0 {
		t.Fatal("no form had lo > hi")
	}
}

// TestWindowScanDecodesMeetingRuns is a work gate that does not depend on
// the machine: on a reopened tiered store, a kind and time window scan
// decodes (obs.SegmentColdReads) exactly the tuple runs whose directory
// entry holds a kind the window asks for and whose span meets the window,
// counted from the segment files' footers.
func TestWindowScanDecodesMeetingRuns(t *testing.T) {
	dir := t.TempDir()
	st, tier, _, err := segment.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(51); seed < 55; seed++ {
		populate(t, st, seed, 4, 3, 8)
		if err := tier.Freeze(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	var runs []segment.RunMeta
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("segment files %v (%v), want 4", paths, err)
	}
	for _, p := range paths {
		r, err := segment.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range r.Footer().Runs {
			if (m.Op == store.MutPutStructured || m.Op == store.MutAppendTuples) && m.Interp == DefaultInterpretation {
				runs = append(runs, m)
			}
		}
		r.Close()
	}
	st, tier, _, err = segment.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	e := NewEngineWith(st, Options{Parallelism: 1})
	stop, move := episode.Stop, episode.Move
	skipped := 0
	for i, q := range []Query{
		{From: t0.Add(2 * time.Hour), To: t0.Add(3 * time.Hour)},
		{Kind: &stop, From: t0.Add(26 * time.Hour), To: t0.Add(27 * time.Hour)},
		{Kind: &move, From: t0.Add(50 * time.Hour)},
		{Kind: &stop, To: t0.Add(time.Hour)},
		{Kind: &move},
	} {
		f, err := compile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, m := range runs {
			if (m.Stops > 0 && f.kinds&stopKind != 0 || m.Stops < m.Count && f.kinds&moveKind != 0) &&
				!stampOf(m.TimeMax).before(f.lo) && !f.hi.before(stampOf(m.TimeMin)) {
				want++
			}
		}
		before := obs.SegmentColdReads.Value()
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
		if got := int(obs.SegmentColdReads.Value() - before); got != want {
			t.Fatalf("query %d (%+v) decoded %d runs, want the %d of %d whose kinds and span meet it", i, q, got, want, len(runs))
		}
		skipped += len(runs) - want
		t.Logf("query %d: decoded %d of %d runs", i, want, len(runs))
	}
	if skipped == 0 {
		t.Fatal("no query skipped a run")
	}
}

// TestTieredProjectedScanMatchesHeap checks the grouped scan's projected
// read — each frozen run's tuples taken from its column frame — against an
// all-heap store, live and after a reopen. The tiered store freezes into
// several segments; some tuples are untimed, some carry a place, merges
// into frozen positions change places and annotation values (and add a
// key), and a replace of a frozen trajectory is frozen too. Random grouped
// statements — every dimension and metric, kind and time windows with lo >
// hi among them, an annotation clause or none — must rank the same groups
// on both stores at workers 1 and 4, and on the tiered store read column
// frames and decode no data frame.
func TestTieredProjectedScanMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	all := populate(t, store.New(), 45, 6, 3, 14)
	for i := range all {
		tp := cloneTuple(all[i].tp)
		switch i % 7 {
		case 3:
			tp.TimeIn, tp.TimeOut = time.Time{}, time.Time{}
		case 1, 4:
			tp.Place = &core.Place{ID: fmt.Sprintf("poi-%d", i%5), Kind: core.PointPlace, Name: "name", Category: "cat"}
		}
		all[i].tp = tp
	}
	heap := store.NewSharded(4)
	dir := t.TempDir()
	tiered, tier, _, err := segment.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	both := func(fn func(st *store.Store) error) {
		t.Helper()
		for _, st := range []*store.Store{heap, tiered} {
			if err := fn(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range all {
		both(func(st *store.Store) error {
			return st.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID, s.ref.Interpretation, cloneTuple(s.tp))
		})
		if (i+1)%(len(all)/5) == 0 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 30; i++ {
		s := all[rng.Intn(len(all)*4/5)]
		var place *core.Place
		if i%2 == 0 {
			place = &core.Place{ID: fmt.Sprintf("merged-poi-%d", i%4), Kind: core.RegionPlace}
		}
		anns := []core.Annotation{{Key: core.AnnPOICategory, Value: fmt.Sprintf("merged%d", i%3), Confidence: 2, Source: "prop"}}
		if i%3 == 0 {
			anns = append(anns, core.Annotation{Key: "activity", Value: fmt.Sprintf("act%d", i%2), Confidence: 1})
		}
		both(func(st *store.Store) error {
			return st.MergeTupleAnnotations(s.ref.TrajectoryID, s.ref.Interpretation, s.ref.Index, place, anns)
		})
	}
	replaced := &core.StructuredTrajectory{ID: all[0].ref.TrajectoryID, ObjectID: all[0].ref.ObjectID, Interpretation: DefaultInterpretation}
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].ref.TrajectoryID == replaced.ID {
			replaced.Tuples = append(replaced.Tuples, cloneTuple(all[i].tp))
		}
	}
	both(func(st *store.Store) error {
		cp := *replaced
		cp.Tuples = nil
		for _, tp := range replaced.Tuples {
			cp.Tuples = append(cp.Tuples, cloneTuple(tp))
		}
		return st.PutStructured(&cp)
	})
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	if n, ov := tier.SegmentCount(), overlaid(tiered, tier, all); n < 5 || ov == 0 {
		t.Fatalf("%d segments and %d overlay entries, want at least 5 and 1", n, ov)
	}

	bound := func() stamp {
		switch rng.Intn(8) {
		case 0:
			return stampOf(time.Time{})
		case 1:
			return openLo
		case 2:
			return openHi
		}
		tp := all[rng.Intn(len(all))].tp
		at := tp.TimeIn
		if rng.Intn(2) == 0 {
			at = tp.TimeOut
		}
		return stampOf(at.Add(time.Duration(rng.Intn(3) - 1)))
	}
	dims := []Aggregate{
		{By: DimObject}, {By: DimTrajectory}, {By: DimKind}, {By: DimPlace},
		{By: DimAnnotation, AnnKey: core.AnnPOICategory},
		{By: DimAnnotation, AnnKey: core.AnnTransportMode},
		{By: DimAnnotation, AnnKey: "activity"},
	}
	metrics := []Metric{MetricCount, MetricDistinctObjects, MetricDuration}
	clauses := [][]annEq{nil, {{core.AnnPOICategory, "merged1"}}, {{core.AnnTransportMode, ""}}, {{"activity", "act0"}}}
	kinds := []kindSet{allKinds, stopKind, moveKind}
	scan := func(e *Engine, f *form, a Aggregate, workers int) []Group {
		s := &sink{agg: &a, groups: newGroups(&a)}
		e.scan(f, s, workers)
		return a.rank(s.groups)
	}
	heapEng := NewEngine(heap)
	for reopen := range 2 {
		if reopen == 1 {
			if err := tier.Close(); err != nil {
				t.Fatal(err)
			}
			if tiered, tier, _, err = segment.Recover(dir, 4); err != nil {
				t.Fatal(err)
			}
		}
		tieredEng := NewEngine(tiered)
		gaps := 0
		cols, runs := obs.SegmentColumnReads.Value(), obs.SegmentColdReads.Value()
		for i := 0; i < 150; i++ {
			f := form{interp: DefaultInterpretation, kinds: kinds[rng.Intn(len(kinds))], lo: bound(), hi: bound(),
				anns: clauses[rng.Intn(len(clauses))]}
			if f.hi.before(f.lo) {
				gaps++
			}
			a := dims[rng.Intn(len(dims))]
			a.Metric, a.K = metrics[rng.Intn(len(metrics))], rng.Intn(5)
			want := scan(heapEng, &f, a, 1)
			for _, w := range []int{1, 4} {
				sameGroups(t, fmt.Sprintf("reopened %v, form %d (kinds %b, lo %v, hi %v, anns %v) by %s/%s %s top %d, workers %d",
					reopen == 1, i, f.kinds, f.lo, f.hi, f.anns, a.By, a.AnnKey, a.Metric, a.K, w), scan(tieredEng, &f, a, w), want)
			}
		}
		if gaps == 0 {
			t.Fatal("no form had lo > hi")
		}
		cols, runs = obs.SegmentColumnReads.Value()-cols, obs.SegmentColdReads.Value()-runs
		if cols == 0 || runs != 0 {
			t.Fatalf("reopened %v: grouped scans read %d column frames and decoded %d data frames, want some and none", reopen == 1, cols, runs)
		}
	}
	tier.Close()
}

// overlaid counts the frozen tuples of all's keys that st reads otherwise
// than their segment holds them: those a merge overlay stands in for.
func overlaid(st *store.Store, tier *segment.Tier, all []stored) int {
	n := 0
	seen := map[[2]string]bool{}
	for _, s := range all {
		k := [2]string{s.ref.TrajectoryID, s.ref.Interpretation}
		if seen[k] {
			continue
		}
		seen[k] = true
		got, ok := st.Structured(k[0], k[1])
		if !ok {
			continue
		}
		for i, tp := range tier.ColdTuples(k[0], k[1], 0, math.MaxInt, nil) {
			if i < len(got.Tuples) && !reflect.DeepEqual(tp, *got.Tuples[i]) {
				n++
			}
		}
	}
	return n
}

// TestObjectOrTrajectoryClauseNeverScans pins why a cold scan skips runs by
// no object or trajectory rule: a form with an object or trajectory clause
// makes the object-time or trajectory path available with an estimate no
// larger than the full scan's, and a tie goes to the index path, so no such
// form is planned as a full scan — on an empty store, a heap store and a
// tiered one, for objects and trajectories present or not.
func TestObjectOrTrajectoryClauseNeverScans(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	heap := store.NewSharded(4)
	all := populate(t, heap, 47, 6, 3, 15)
	tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID, s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(len(all)/5) == 0 && i < len(all)*4/5 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tier.SegmentCount() == 0 {
		t.Fatal("nothing froze")
	}
	for _, st := range []*store.Store{store.New(), heap, tiered} {
		e := NewEngine(st)
		for i := 0; i < 400; i++ {
			q := randomQuery(rng)
			s := all[rng.Intn(len(all))]
			switch rng.Intn(4) {
			case 0:
				q.ObjectID = s.ref.ObjectID
			case 1:
				q.TrajectoryID = s.ref.TrajectoryID
			case 2:
				q.ObjectID, q.TrajectoryID = s.ref.ObjectID, s.ref.TrajectoryID
			default:
				q.ObjectID = "nobody"
			}
			f, err := compile(q)
			if err != nil {
				continue
			}
			if p := e.plan(&f); p.Path == PathScan {
				t.Fatalf("query %+v planned %s", q, p)
			}
		}
	}
}
