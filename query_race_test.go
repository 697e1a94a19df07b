package semitri_test

import (
	"sync"
	"testing"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/query"
	"semitri/internal/store"
)

// raceQueries is the query mix the concurrent read path is exercised with:
// every access path of the planner (annotation, object-time, spatial,
// trajectory-direct via the store wrapper, full scan) against a live store.
func raceQueries(objects []string, base time.Time) []query.Query {
	stop := episode.Stop
	window := geo.RectAround(geo.Pt(5000, 5000), 2500)
	near := geo.Pt(3000, 3000)
	qs := []query.Query{
		{}, // full scan
		{Kind: &stop},
		{AnnKey: core.AnnPOICategory, AnnValue: "item sale"},
		{AnnKey: core.AnnPOICategory, AnnValue: "feedings", Kind: &stop},
		{AnnKey: core.AnnTransportMode, AnnValue: "walk"},
		{Window: &window},
		{Near: &near, Radius: 2000},
	}
	for _, obj := range objects {
		qs = append(qs,
			query.Query{ObjectID: obj},
			query.Query{ObjectID: obj, From: base, To: base.Add(12 * time.Hour)},
		)
	}
	return qs
}

// verifyMatch asserts one concurrent query result against the quiesced
// store: the ref must resolve (no phantoms), the immutable tuple fields must
// agree with what the query returned (no torn reads), and the predicates the
// query asked for must have held on the returned copy.
func verifyMatch(t *testing.T, st *store.Store, q query.Query, m query.Match) {
	t.Helper()
	final, ok := st.TupleAt(m.Ref.TrajectoryID, m.Ref.Interpretation, m.Ref.Index)
	if !ok {
		t.Fatalf("phantom result: ref %+v not in post-hoc store", m.Ref)
	}
	if final.Kind != m.Tuple.Kind || !final.TimeIn.Equal(m.Tuple.TimeIn) || !final.TimeOut.Equal(m.Tuple.TimeOut) {
		t.Fatalf("torn result at %+v: returned (%v %v %v), store holds (%v %v %v)",
			m.Ref, m.Tuple.Kind, m.Tuple.TimeIn, m.Tuple.TimeOut, final.Kind, final.TimeIn, final.TimeOut)
	}
	if q.Kind != nil && m.Tuple.Kind != *q.Kind {
		t.Fatalf("result at %+v violates kind predicate", m.Ref)
	}
	if q.AnnKey != "" && m.Tuple.Annotations.Value(q.AnnKey) != q.AnnValue {
		t.Fatalf("result at %+v violates annotation predicate %s=%s (got %q)",
			m.Ref, q.AnnKey, q.AnnValue, m.Tuple.Annotations.Value(q.AnnKey))
	}
	if !q.From.IsZero() && m.Tuple.TimeOut.Before(q.From) {
		t.Fatalf("result at %+v violates From", m.Ref)
	}
	if !q.To.IsZero() && m.Tuple.TimeIn.After(q.To) {
		t.Fatalf("result at %+v violates To", m.Ref)
	}
	if q.ObjectID != "" && m.Ref.ObjectID != q.ObjectID {
		t.Fatalf("result at %+v violates object predicate", m.Ref)
	}
	if q.Window != nil && (m.Tuple.Episode == nil || !m.Tuple.Episode.Bounds.Intersects(*q.Window)) {
		t.Fatalf("result at %+v violates window predicate", m.Ref)
	}
	if q.Near != nil && (m.Tuple.Episode == nil || m.Tuple.Episode.Center.DistanceTo(*q.Near) > q.Radius) {
		t.Fatalf("result at %+v violates radius predicate", m.Ref)
	}
}

// TestConcurrentQueryIngest runs the query engine concurrently with
// streaming ingestion of 8 objects (one feeding goroutine per object, two
// querying goroutines hammering every access path) and then verifies every
// result any query ever returned against a brute-force post-hoc scan: no
// phantom refs, no torn tuples, no predicate violations. After quiescence
// the engine must also agree exactly with a brute-force filter of the final
// store. Run under -race this is the read-path counterpart of
// TestBatchStreamParityConcurrent.
func TestConcurrentQueryIngest(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 8, 1, 5)
	byObject := objectOrder(records)
	if len(byObject) < 8 {
		t.Fatalf("workload produced %d objects, want >= 8", len(byObject))
	}
	objects := make([]string, 0, len(byObject))
	var base time.Time
	for obj, recs := range byObject {
		objects = append(objects, obj)
		if base.IsZero() || recs[0].Time.Before(base) {
			base = recs[0].Time
		}
	}

	pipeline := newTestPipeline(t, city, semitri.DefaultConfig())
	engine := pipeline.QueryEngine() // attach before ingestion: purely incremental build
	sp := pipeline.NewStream()

	type hit struct {
		q query.Query
		m query.Match
	}
	var (
		hitsMu sync.Mutex
		hits   []hit
	)
	done := make(chan struct{})
	var writers sync.WaitGroup
	for _, recs := range byObject {
		writers.Add(1)
		go func(recs []gps.Record) {
			defer writers.Done()
			for _, r := range recs {
				if _, err := sp.Add(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(recs)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			qs := raceQueries(objects, base)
			stop := episode.Stop
			saleStops := query.Query{Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: "item sale"}
			for i := 0; ; i++ {
				// Exit once ingestion finished — but never before completing
				// one full pass over the query mix: on a slow machine the
				// writers can outrun the readers entirely, and a race test
				// that issued no queries exercised nothing. The ingested
				// episodes are already in the store by then, so the pass
				// still races the engine against the closing trajectories.
				if i >= len(qs) {
					select {
					case <-done:
						return
					default:
					}
				}
				q := qs[(i+g)%len(qs)]
				ms, err := engine.Execute(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Interleave a builder-built query too (the typed
				// replacement of the deprecated store wrapper).
				if _, err := engine.Execute(saleStops); err != nil {
					t.Error(err)
					return
				}
				hitsMu.Lock()
				for _, m := range ms {
					hits = append(hits, hit{q: q, m: m})
				}
				hitsMu.Unlock()
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	st := pipeline.Store()
	if len(hits) == 0 {
		t.Fatal("the query goroutines never returned a result; the race test exercised nothing")
	}
	for _, h := range hits {
		verifyMatch(t, st, h.q, h.m)
	}

	// Quiescent completeness: for every query in the mix, the engine's
	// results must now equal a brute-force scan of the final store.
	for _, q := range raceQueries(objects, base) {
		ms, err := engine.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[store.TupleRef]bool{}
		for _, m := range ms {
			if got[m.Ref] {
				t.Fatalf("duplicate result %+v", m.Ref)
			}
			got[m.Ref] = true
		}
		norm := q
		if norm.Interpretation == "" {
			norm.Interpretation = query.DefaultInterpretation
		}
		want := 0
		st.VisitStructuredTuples(norm.Interpretation, func(ref store.TupleRef, tp core.EpisodeTuple) bool {
			if bruteMatchesQuery(norm, ref, tp) {
				want++
				if !got[ref] {
					t.Fatalf("query %+v: engine missed %+v after quiescence", q, ref)
				}
			}
			return true
		})
		if want != len(got) {
			t.Fatalf("query %+v: engine returned %d results, brute force %d", q, len(got), want)
		}
	}
}

// bruteMatchesQuery re-implements the predicate semantics for the
// completeness check (independent of the engine's own matcher).
func bruteMatchesQuery(q query.Query, ref store.TupleRef, tp core.EpisodeTuple) bool {
	if ref.Interpretation != q.Interpretation {
		return false
	}
	if q.ObjectID != "" && ref.ObjectID != q.ObjectID {
		return false
	}
	if q.TrajectoryID != "" && ref.TrajectoryID != q.TrajectoryID {
		return false
	}
	if q.Kind != nil && tp.Kind != *q.Kind {
		return false
	}
	if !q.From.IsZero() && tp.TimeOut.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && tp.TimeIn.After(q.To) {
		return false
	}
	if q.AnnKey != "" && tp.Annotations.Value(q.AnnKey) != q.AnnValue {
		return false
	}
	if q.Window != nil && (tp.Episode == nil || !tp.Episode.Bounds.Intersects(*q.Window)) {
		return false
	}
	if q.Near != nil && (tp.Episode == nil || tp.Episode.Center.DistanceTo(*q.Near) > q.Radius) {
		return false
	}
	return true
}

// TestQueryEngineLazyAttach checks the other construction order: batch
// ingest first, engine second (backfill), and that the backfilled engine
// answers exactly what the engine-less store's scan path answered.
func TestQueryEngineLazyAttach(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 2, 1, 5)
	pipeline := newTestPipeline(t, city, semitri.DefaultConfig())
	if _, err := pipeline.ProcessRecords(records); err != nil {
		t.Fatal(err)
	}
	// Pre-engine there is no engine surface yet; a raw store scan is the
	// baseline the backfill is checked against.
	var before []*core.EpisodeTuple
	pipeline.Store().VisitStructuredTuples("merged", func(_ store.TupleRef, tp core.EpisodeTuple) bool {
		if tp.Kind == episode.Stop && tp.Annotations.Value(core.AnnPOICategory) == "item sale" {
			cp := tp
			before = append(before, &cp)
		}
		return true
	})
	engine := pipeline.QueryEngine()
	if engine != pipeline.QueryEngine() {
		t.Fatal("QueryEngine must be a singleton per pipeline")
	}
	stats := engine.IndexStats()
	if stats.IndexedTuples == 0 || stats.Objects == 0 {
		t.Fatalf("backfill indexed nothing: %+v", stats)
	}
	// The backfilled engine answers the typed equivalent identically.
	stop := episode.Stop
	ms, err := engine.Execute(query.Query{
		Kind: &stop, Interpretation: "merged",
		AnnKey: core.AnnPOICategory, AnnValue: "item sale",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(before) {
		t.Fatalf("typed query found %d, pre-engine scan %d", len(ms), len(before))
	}
	want := map[string]int{}
	for _, tp := range before {
		want[tp.TimeIn.String()+"|"+tp.Annotations.String()]++
	}
	for _, m := range ms {
		k := m.Tuple.TimeIn.String() + "|" + m.Tuple.Annotations.String()
		if want[k] == 0 {
			t.Fatalf("engine hit %v not in pre-engine scan", m.Tuple)
		}
		want[k]--
	}
}
