package semitri_test

import (
	"sync"
	"testing"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/poi"
	"semitri/internal/query"
	"semitri/internal/store"
	"semitri/internal/workload"
)

// The query benchmarks measure the serving-layer read path: typed queries
// through the engine's incrementally maintained indexes, each against the
// pre-index full-scan baseline (a brute pass over the stored tuples — the
// only read path the store had before the engine existed). The shared
// fixture is a 6-user x 5-day people workload.
var (
	queryBenchOnce   sync.Once
	queryBenchEngine *query.Engine
	queryBenchStore  *store.Store
	queryBenchObjs   []string
	queryBenchDay    time.Time
	queryBenchErr    error
)

func queryBenchSetup(b *testing.B) (*query.Engine, *store.Store) {
	b.Helper()
	queryBenchOnce.Do(func() {
		city, err := workload.NewCity(workload.DefaultCityConfig(1, 8000))
		if err != nil {
			queryBenchErr = err
			return
		}
		ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(6, 5, 17))
		if err != nil {
			queryBenchErr = err
			return
		}
		p, err := semitri.New(semitri.Sources{
			Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
		}, semitri.DefaultConfig())
		if err != nil {
			queryBenchErr = err
			return
		}
		if _, err := p.ProcessRecords(ds.Records()); err != nil {
			queryBenchErr = err
			return
		}
		queryBenchEngine = p.QueryEngine()
		queryBenchStore = p.Store()
		queryBenchObjs = ds.Objects
		queryBenchDay = ds.Records()[0].Time.Truncate(24 * time.Hour)
	})
	if queryBenchErr != nil {
		b.Fatal(queryBenchErr)
	}
	return queryBenchEngine, queryBenchStore
}

// scanBaseline is the pre-index execution: visit every stored tuple of the
// interpretation and filter (bruteMatchesQuery re-implements the predicate
// semantics independently of the engine).
func scanBaseline(st *store.Store, q query.Query) int {
	if q.Interpretation == "" {
		q.Interpretation = query.DefaultInterpretation
	}
	n := 0
	st.VisitStructuredTuples(q.Interpretation, func(ref store.TupleRef, tp core.EpisodeTuple) bool {
		if bruteMatchesQuery(q, ref, tp) {
			n++
		}
		return true
	})
	return n
}

// runQueryBench measures one query shape indexed and scanned, asserting
// both executions agree on the result count. The indexed run also reports
// candidates/op, the candidates its gathers nominate per statement
// (obs.QueryCandidates): counted work, which no machine changes.
func runQueryBench(b *testing.B, queries []query.Query) {
	engine, st := queryBenchSetup(b)
	indexedHits, scanHits := 0, 0
	for _, q := range queries {
		ms, err := engine.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		indexedHits += len(ms)
		scanHits += scanBaseline(st, q)
	}
	if indexedHits != scanHits {
		b.Fatalf("indexed found %d results, scan %d", indexedHits, scanHits)
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		candidates := obs.QueryCandidates.Value()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Execute(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(obs.QueryCandidates.Value()-candidates)/float64(b.N), "candidates/op")
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scanBaseline(st, queries[i%len(queries)])
		}
	})
}

// BenchmarkQueryByAnnotation: stops by POI category across the whole store
// (the paper's "who stopped at a restaurant" shape).
func BenchmarkQueryByAnnotation(b *testing.B) {
	queryBenchSetup(b)
	stop := episode.Stop
	var queries []query.Query
	for _, cat := range poi.AllCategories {
		queries = append(queries, query.Query{
			Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: cat.String(),
		})
	}
	runQueryBench(b, queries)
}

// BenchmarkQueryTimeWindow: one object's episodes in a 4-hour window.
func BenchmarkQueryTimeWindow(b *testing.B) {
	queryBenchSetup(b)
	var queries []query.Query
	for i, obj := range queryBenchObjs {
		from := queryBenchDay.Add(time.Duration(6+2*i) * time.Hour)
		queries = append(queries, query.Query{
			ObjectID: obj, From: from, To: from.Add(4 * time.Hour),
		})
	}
	runQueryBench(b, queries)
}

// BenchmarkQuerySpatial: stops inside a 1.6km neighbourhood window (the
// paper's "who stopped inside this region" shape; the grid's kind-tagged
// postings prefilter the move episodes, whose kilometre-wide bounding boxes
// would otherwise intersect every window).
func BenchmarkQuerySpatial(b *testing.B) {
	queryBenchSetup(b)
	stop := episode.Stop
	var queries []query.Query
	for i := 0; i < 8; i++ {
		w := geo.RectAround(geo.Pt(float64(1500+i*1000), float64(8500-i*1000)), 800)
		queries = append(queries, query.Query{Kind: &stop, Window: &w})
	}
	runQueryBench(b, queries)
}
