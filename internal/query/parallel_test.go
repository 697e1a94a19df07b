package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"semitri/internal/episode"
	"semitri/internal/segment"
	"semitri/internal/store"
)

// TestParallelDeterminism is the parallel executor's property test: over a
// randomized workload and randomized queries, execution at workers ∈
// {2, 4, 8} must return results byte-identical — order included — to
// workers=1, for Execute, ExecuteJoin and the aggregates, all sized by the
// engine's parallelism. The serial threshold is forced to 1 so even tiny
// candidate sets take the parallel paths.
func TestParallelDeterminism(t *testing.T) {
	st := store.NewSharded(8)
	e := NewEngineWith(st, Options{Parallelism: 1})
	e.SetSerialThreshold(1)
	populate(t, st, 7, 6, 3, 14)
	rng := rand.New(rand.NewSource(99))

	queries := make([]Query, 0, 42)
	for i := 0; i < 38; i++ {
		queries = append(queries, randomQuery(rng))
	}
	// Limited indexed queries whose limit falls inside a resolution chunk at
	// every worker count: the chunk that meets it stops its siblings, and
	// the merge must still return the serial prefix.
	midChunk := []Query{
		{AnnKey: "poi_category", AnnValue: "restaurant", Limit: 9},
		{AnnKey: "transport_mode", AnnValue: "walk", Limit: 17},
	}
	queries = append(queries, midChunk...)
	// Always include the two extremes: the unconstrained full scan and a
	// limited query (limit pushdown must not change results either).
	queries = append(queries, Query{}, Query{Limit: 5})

	joins := []Join{
		{
			Left:  Query{Kind: ptr(episode.Stop)},
			Right: Query{Kind: ptr(episode.Stop)},
			On:    JoinOn{Within: time.Hour, MaxDistance: 400, DistinctObjects: true},
		},
		{
			Left:  Query{},
			Right: Query{Kind: ptr(episode.Move)},
			On:    JoinOn{TimeOverlap: true, SameObject: true},
			Limit: 20,
		},
	}
	aggs := []Aggregate{
		{By: DimObject, Metric: MetricCount},
		{By: DimAnnotation, AnnKey: "poi_category", Metric: MetricDistinctObjects, K: 3},
		{By: DimKind, Metric: MetricDuration},
	}

	// Serial references.
	refMatches := make([][]Match, len(queries))
	for i, q := range queries {
		ms, err := e.Execute(q)
		if err != nil {
			t.Fatalf("serial Execute(%+v): %v", q, err)
		}
		refMatches[i] = ms
	}
	for _, q := range midChunk {
		unlimited := q
		unlimited.Limit = 0
		all, err := e.Execute(unlimited)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) <= q.Limit {
			t.Fatalf("%+v: the limit cuts nothing from %d matches", q, len(all))
		}
	}
	refPairs := make([][]JoinMatch, len(joins))
	for i, j := range joins {
		ps, err := e.ExecuteJoin(j)
		if err != nil {
			t.Fatalf("serial ExecuteJoin: %v", err)
		}
		refPairs[i] = ps
	}
	refGroups := make([][]Group, len(aggs))
	for i, a := range aggs {
		gs, err := e.AggregateMatches(a, refMatches[len(queries)-2]) // the full scan
		if err != nil {
			t.Fatalf("serial Aggregate: %v", err)
		}
		refGroups[i] = gs
	}

	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e.SetParallelism(workers)
			defer e.SetParallelism(1)
			for i, q := range queries {
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("Execute(%+v): %v", q, err)
				}
				if !reflect.DeepEqual(got, refMatches[i]) {
					t.Fatalf("Execute(%+v) diverges at workers=%d: %d vs %d matches",
						q, workers, len(got), len(refMatches[i]))
				}
			}
			for i, j := range joins {
				got, jp, err := e.ExecuteJoinExplained(j)
				if err != nil {
					t.Fatalf("ExecuteJoin: %v", err)
				}
				if !reflect.DeepEqual(got, refPairs[i]) {
					t.Fatalf("ExecuteJoin diverges at workers=%d: %d vs %d pairs",
						workers, len(got), len(refPairs[i]))
				}
				if jp.Workers > workers {
					t.Fatalf("join plan reports %d workers, cap is %d", jp.Workers, workers)
				}
			}
			for i, a := range aggs {
				got, err := e.AggregateMatches(a, refMatches[len(queries)-2])
				if err != nil {
					t.Fatalf("Aggregate: %v", err)
				}
				if !reflect.DeepEqual(got, refGroups[i]) {
					t.Fatalf("Aggregate %+v diverges at workers=%d", a, workers)
				}
			}
		})
	}
}

// TestLimitPushdown asserts that a limited query returns exactly the prefix
// of the unlimited result — the limit satellite's contract: pushing the
// limit into candidate resolution (and cancelling parallel siblings) must
// not change what the first Limit matches are, serial or parallel, on an
// all-heap store and on a tiered one whose scans visit cold segments.
func TestLimitPushdown(t *testing.T) {
	heap := store.NewSharded(8)
	all := populate(t, heap, 11, 5, 2, 12)
	tiered, tier, _, err := segment.Recover(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i, s := range all {
		if err := tiered.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID,
			s.ref.Interpretation, cloneTuple(s.tp)); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name string
		st   *store.Store
	}{{"heap", heap}, {"tiered", tiered}} {
		e := NewEngineWith(c.st, Options{Parallelism: 1})
		e.SetSerialThreshold(1)
		check := func(q Query) {
			t.Helper()
			full, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{1, 3, len(full), len(full) + 5} {
				lq := q
				lq.Limit = limit
				got, err := e.Execute(lq)
				if err != nil {
					t.Fatal(err)
				}
				want := full
				if limit < len(full) {
					want = full[:limit]
				}
				if len(got) != len(want) {
					t.Fatalf("%s, limit %d: got %d matches, want %d (query %+v)", c.name, limit, len(got), len(want), q)
				}
				if len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, limit %d: results are not the unlimited prefix (query %+v)", c.name, limit, q)
				}
			}
		}
		rng := rand.New(rand.NewSource(42))
		for _, workers := range []int{1, 4} {
			e.SetParallelism(workers)
			check(Query{}) // full scan
			for i := 0; i < 25; i++ {
				check(randomQuery(rng))
			}
		}
	}
}

// TestParallelismOneFoldsSerially: with the engine's parallelism at 1, a
// fold ten times the serial cutoff still runs its row callback on one
// goroutine at a time — Options.Parallelism = 1 means serial for group-bys
// too.
func TestParallelismOneFoldsSerially(t *testing.T) {
	e := NewEngine(store.NewSharded(1))
	e.SetParallelism(1)
	var inFlight, maxInFlight atomic.Int32
	n := 10 * e.serialCutoff()
	groups, err := e.fold(Aggregate{By: DimObject}, n, func(i int) (string, bool, string, time.Duration) {
		cur := inFlight.Add(1)
		for m := maxInFlight.Load(); cur > m && !maxInFlight.CompareAndSwap(m, cur); m = maxInFlight.Load() {
		}
		runtime.Gosched() // give a concurrent worker the chance to overlap
		inFlight.Add(-1)
		return fmt.Sprintf("g%d", i%7), true, "", 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("row callback ran %d at a time at parallelism 1, want 1", got)
	}
	rows := 0
	for _, g := range groups {
		rows += g.Count
	}
	if len(groups) != 7 || rows != n {
		t.Fatalf("fold of %d rows produced %+v", n, groups)
	}
}

// TestChunkBounds pins the chunking invariants parallel resolution relies
// on: bounds cover the refs exactly, chunks are non-empty, and no
// (trajectory, interpretation) group ever splits across a boundary.
func TestChunkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var refs []store.TupleRef
		groups := 1 + rng.Intn(12)
		for g := 0; g < groups; g++ {
			id := fmt.Sprintf("T%03d", g)
			for i := 0; i < 1+rng.Intn(9); i++ {
				refs = append(refs, store.TupleRef{TrajectoryID: id, Interpretation: "merged", Index: i})
			}
		}
		chunks := 1 + rng.Intn(8)
		bounds := chunkBounds(refs, chunks)
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(refs) {
			t.Fatalf("bounds %v do not cover %d refs", bounds, len(refs))
		}
		if len(bounds)-1 > chunks {
			t.Fatalf("%d chunks produced, cap was %d", len(bounds)-1, chunks)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("empty or inverted chunk in %v", bounds)
			}
			if b := bounds[i]; b < len(refs) && refs[b].TrajectoryID == refs[b-1].TrajectoryID {
				t.Fatalf("boundary %d splits trajectory %s", b, refs[b].TrajectoryID)
			}
		}
	}
}
