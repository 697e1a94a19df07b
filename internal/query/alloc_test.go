package query

import (
	"fmt"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/segment"
	"semitri/internal/store"
)

// groupedAllocSlack is what a grouped statement may allocate beyond one
// allocation per group: the plan, the fold's maps, the per-worker visitors
// and the ranked result, none of which grows with the tuples a run holds,
// the keys a stripe holds or the segments they are frozen in.
const groupedAllocSlack = 40

// TestGroupedScanAllocations is a work gate that does not depend on the
// machine: on a reopened tiered store, at one worker, a grouped statement
// folded inside the cold scan reads at least one column frame
// (obs.SegmentColumnReads), decodes no data frame (obs.SegmentColdReads),
// and allocates at most its groups plus groupedAllocSlack. Two store
// sizes, whose runs hold 20 and 40 tuples, keep a per-tuple or per-run
// allocation from hiding in the slack.
func TestGroupedScanAllocations(t *testing.T) {
	stop, move := episode.Stop, episode.Move
	stmts := []struct {
		q Query
		a Aggregate
	}{
		{Query{Kind: &stop}, Aggregate{By: DimAnnotation, AnnKey: "poi_category"}},
		{Query{Kind: &move}, Aggregate{By: DimAnnotation, AnnKey: "transport_mode"}},
		{Query{Kind: &stop}, Aggregate{By: DimObject, Metric: MetricDistinctObjects}},
		{Query{}, Aggregate{By: DimKind, Metric: MetricDuration}},
		{Query{From: t0.Add(10 * time.Hour), To: t0.Add(60 * time.Hour)}, Aggregate{By: DimTrajectory}},
	}
	for _, size := range []struct{ objects, tuples int }{{6, 40}, {12, 80}} {
		dir := t.TempDir()
		st, tier, _, err := segment.Recover(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(48); seed < 50; seed++ {
			populate(t, st, seed, size.objects, 3, size.tuples/2)
			if err := tier.Freeze(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		st, tier, _, err = segment.Recover(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		e := NewEngineWith(st, Options{Parallelism: 1})
		for _, s := range stmts {
			var groups []Group
			cols, runs := obs.SegmentColumnReads.Value(), obs.SegmentColdReads.Value()
			allocs := testing.AllocsPerRun(20, func() {
				if groups, _, err = e.ExecuteAggregate(s.q, s.a); err != nil {
					t.Fatal(err)
				}
			})
			cols = obs.SegmentColumnReads.Value() - cols
			if runs = obs.SegmentColdReads.Value() - runs; cols < 1 || runs != 0 {
				t.Fatalf("%d objects: %+v by %s read %d column frames and decoded %d data frames, want some and none",
					size.objects, s.q, s.a.By, cols, runs)
			}
			if bound := float64(len(groups) + groupedAllocSlack); allocs > bound {
				t.Fatalf("%d objects: %+v by %s allocates %.0f times, over %d groups + %d",
					size.objects, s.q, s.a.By, allocs, len(groups), groupedAllocSlack)
			}
			t.Logf("%d objects: %+v by %s: %.0f allocations, %d column frames, %d groups", size.objects, s.q, s.a.By, allocs, cols/21, len(groups))
		}
	}
}

// TestIndexedStatementAllocations is a work gate that does not depend on the
// machine: at one worker on a heap store, an annotation and a spatial
// statement allocate exactly as often when their gathers nominate 500
// candidates as when they nominate 50 — gathering, sorting and grouping
// the candidates allocate nothing per candidate. Both sizes return the same
// five rows, so the results' own allocations cancel out.
func TestIndexedStatementAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	stop := episode.Stop
	window := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	stmts := []struct {
		q    Query
		path Path
	}{
		{Query{Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: "shop", To: t0.Add(10 * time.Minute)}, PathAnnotation},
		{Query{Kind: &stop, Window: &window, To: t0.Add(10 * time.Minute)}, PathSpatial},
	}
	var counts [2][]float64
	for n, perTraj := range []int{10, 100} {
		st := store.New()
		e := NewEngineWith(st, Options{Parallelism: 1})
		// Five trajectories, each a run of stops an hour apart from t0 on:
		// only each one's first stop meets the statements' time clause.
		for tj := 0; tj < 5; tj++ {
			for i := 0; i < perTraj; i++ {
				at := t0.Add(time.Duration(i) * time.Hour)
				tp := mkTuple(episode.Stop, at, at.Add(30*time.Minute), geo.Pt(float64(100+tj*100), float64(100+i%8*100)),
					ann(core.AnnPOICategory, "shop"))
				if err := st.AppendStructuredTuples(fmt.Sprintf("u%d-T0", tj), fmt.Sprintf("u%d", tj), DefaultInterpretation, tp); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, s := range stmts {
			var ms []Match
			var plan Plan
			var err error
			candidates := obs.QueryCandidates.Value()
			allocs := testing.AllocsPerRun(50, func() {
				if ms, plan, err = e.ExecuteExplained(s.q); err != nil {
					t.Fatal(err)
				}
			})
			candidates = (obs.QueryCandidates.Value() - candidates) / 51
			if plan.Path != s.path || len(ms) != 5 || candidates != int64(5*perTraj) {
				t.Fatalf("%+v planned %s, returned %d rows from %d candidates; want %s, 5 rows from %d",
					s.q, plan, len(ms), candidates, s.path, 5*perTraj)
			}
			counts[n] = append(counts[n], allocs)
		}
	}
	for i, s := range stmts {
		if counts[0][i] != counts[1][i] {
			t.Fatalf("%s statement allocates %.0f times for 50 candidates and %.0f for 500, want the same",
				s.path, counts[0][i], counts[1][i])
		}
		t.Logf("%s statement: %.0f allocations at 50 and at 500 candidates", s.path, counts[0][i])
	}
}
