package semitri_test

import (
	"testing"

	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/line"
	"semitri/internal/point"
	"semitri/internal/region"
)

// The spatial-layer micro-benchmarks isolate the per-record candidate
// lookups the three annotation layers issue against the shared spatial
// indexes (internal/spatial), each with the per-object locality cursor on
// and off. They run over a real person-day query stream so cursor hit rates
// match what the pipeline sees. `-bench 'Lookup|Candidates'` runs them all;
// the bench/ replay reports the per-layer ns/record at benchmark scale.

// benchQueries generates one person-day of cleaned GPS positions and the
// day's stop centres.
func benchQueries(b *testing.B) (positions []geo.Point, stops []geo.Point) {
	b.Helper()
	records := append([]gps.Record(nil), benchPeople(b, 1, 1, 99)...)
	gps.SortRecords(records)
	records = gps.Clean(records, gps.DefaultCleaningConfig())
	for _, r := range records {
		positions = append(positions, r.Position)
	}
	for _, t := range gps.SplitDaily(records, gps.DefaultSegmentationConfig()) {
		eps, err := episode.Detect(t, episode.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, ep := range eps {
			if ep.Kind == episode.Stop {
				stops = append(stops, ep.Center)
			}
		}
	}
	if len(positions) == 0 {
		b.Fatal("empty query stream")
	}
	return positions, stops
}

// BenchmarkRegionLookup measures the region layer's per-record land-use
// cell lookup (Alg. 1's spatial join per GPS record).
func BenchmarkRegionLookup(b *testing.B) {
	env := benchEnv(b)
	positions, _ := benchQueries(b)
	a, err := region.NewAnnotator(env.City.Landuse)
	if err != nil {
		b.Fatal(err)
	}
	t := &gps.RawTrajectory{ID: "bench", ObjectID: "bench"}
	for _, p := range positions {
		t.Records = append(t.Records, gps.Record{ObjectID: "bench", Position: p})
	}
	run := func(b *testing.B, cur *region.Cursor) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.AnnotateTrajectoryCursor(t, cur); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(positions)), "ns/record")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, a.NewCursor()) })
}

// BenchmarkLineCandidates measures the line layer's per-record
// candidate-segment query (candidateSegs(Q) of Alg. 2).
func BenchmarkLineCandidates(b *testing.B) {
	env := benchEnv(b)
	positions, _ := benchQueries(b)
	a, err := line.NewAnnotator(env.City.Roads, line.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	radius := a.Config().CandidateRadius
	run := func(b *testing.B, cur *line.Cursor) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, p := range positions {
				n += len(a.Candidates(p, radius, cur))
			}
		}
		if n < 0 {
			b.Fatal("impossible")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(positions)), "ns/record")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, a.NewCursor()) })
}

// BenchmarkPointCandidates measures the point layer's HMM candidate
// generation — the POIs inside the influence neighbourhood of a query point
// (Lemma 1's observation model) — over the row-major cell sweep of the
// emission discretization (Figs. 7-8). The sweep is the point layer's
// dominant spatial cost (one query per grid cell at every annotator
// construction) and steps one cell at a time, the locality the cursor
// exploits; per-stop queries at run time are answered from the precomputed
// cells and rarely touch the index at all.
func BenchmarkPointCandidates(b *testing.B) {
	env := benchEnv(b)
	a, err := point.NewAnnotator(env.City.POIs, point.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := env.City.POIs.Grid()
	queries := make([]geo.Point, 0, g.NumCells())
	for id := 0; id < g.NumCells(); id++ {
		queries = append(queries, g.CellRectByID(id).Center())
	}
	run := func(b *testing.B, cur *point.Cursor) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, p := range queries {
				n += len(a.Candidates(p, cur))
			}
		}
		if n < 0 {
			b.Fatal("impossible")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
	}
	b.Run("uncached", func(b *testing.B) { run(b, nil) })
	b.Run("cached", func(b *testing.B) { run(b, a.NewCursor()) })
}
