package query

import (
	"testing"
	"time"

	"semitri/internal/episode"
	"semitri/internal/obs"
	"semitri/internal/segment"
)

// groupedAllocSlack is what a grouped statement may allocate beyond one
// allocation per group: the plan, the cut's and the fold's maps, the
// per-worker visitors and the ranked result, none of which grows with the
// tuples a run holds or the segments the scan visits.
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
