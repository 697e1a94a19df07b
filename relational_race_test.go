package semitri_test

import (
	"sync"
	"testing"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/store"
)

// colocStatement is the canonical cross-object question of the relational
// layer: objects with stop episodes within 200 m and 1 h of each other.
const colocStatement = "stops join stops on distance <= 200 and within 1h and distinct objects"

// colocPairOK re-implements the co-location pair predicate for the post-hoc
// verification, independent of the engine's own matcher.
func colocPairOK(l, r *query.Match) bool {
	if l.Ref.ObjectID == r.Ref.ObjectID {
		return false
	}
	if l.Tuple.Kind != episode.Stop || r.Tuple.Kind != episode.Stop {
		return false
	}
	if l.Tuple.Episode == nil || r.Tuple.Episode == nil ||
		l.Tuple.Episode.Center.DistanceTo(r.Tuple.Episode.Center) > 200 {
		return false
	}
	gap := time.Hour
	return !l.Tuple.TimeIn.After(r.Tuple.TimeOut.Add(gap)) &&
		!r.Tuple.TimeIn.After(l.Tuple.TimeOut.Add(gap))
}

// TestConcurrentRelationalIngest is the relational counterpart of
// TestConcurrentQueryIngest: joins and aggregations expressed in the query
// language run concurrently with streaming ingestion (one feeding goroutine
// per object, two goroutines issuing relational statements). Every pair any
// join ever returned is verified post hoc — both sides resolve in the final
// store un-torn, satisfy the side predicates and the pair predicate — and
// after quiescence the language-level join must agree exactly with a
// brute-force nested loop over the final store. Run under -race via the
// Makefile's race target.
func TestConcurrentRelationalIngest(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 8, 1, 5)
	byObject := objectOrder(records)
	if len(byObject) < 8 {
		t.Fatalf("workload produced %d objects, want >= 8", len(byObject))
	}

	cfg := semitri.DefaultConfig()
	cfg.QueryParallelism = 4 // race the parallel executor against live ingestion
	pipeline := newTestPipeline(t, city, cfg)
	engine := pipeline.QueryEngine() // attach before ingestion: purely incremental build
	engine.SetSerialThreshold(1)     // force the parallel paths even on small candidate sets
	sp := pipeline.NewStream()

	stmts := []string{
		colocStatement,
		colocStatement + " group by object distinct objects top 5",
		`stops where ann.poi_category = "item sale" group by place count top 10`,
		"moves join moves on overlaps and same object limit 50",
	}

	var (
		pairsMu   sync.Mutex
		colocSeen []query.JoinMatch
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
			for i := 0; ; i++ {
				// As in TestConcurrentQueryIngest: exit once ingestion
				// finished, but never before one full pass over the mix.
				if i >= len(stmts) {
					select {
					case <-done:
						return
					default:
					}
				}
				stmt := stmts[(i+g)%len(stmts)]
				res, err := lang.Run(engine, stmt)
				if err != nil {
					t.Error(err)
					return
				}
				if stmt == colocStatement {
					pairsMu.Lock()
					colocSeen = append(colocSeen, res.Pairs...)
					pairsMu.Unlock()
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Every pair any concurrent join returned holds against the quiesced
	// store: both sides are stop matches (no phantoms, no torn tuples) and
	// the pair predicate held on the returned copies.
	st := pipeline.Store()
	stop := episode.Stop
	side := query.Query{Kind: &stop}
	for i := range colocSeen {
		p := &colocSeen[i]
		verifyMatch(t, st, side, p.Left)
		verifyMatch(t, st, side, p.Right)
		if !colocPairOK(&p.Left, &p.Right) {
			t.Fatalf("concurrent join returned a pair violating the predicate: %+v / %+v", p.Left.Ref, p.Right.Ref)
		}
	}

	// Quiescent completeness: the language-level join equals a brute-force
	// nested loop over the final store.
	res, err := lang.Run(engine, colocStatement)
	if err != nil {
		t.Fatal(err)
	}
	type refPair struct{ l, r store.TupleRef }
	got := map[refPair]bool{}
	for _, p := range res.Pairs {
		rp := refPair{p.Left.Ref, p.Right.Ref}
		if got[rp] {
			t.Fatalf("duplicate pair %+v", rp)
		}
		got[rp] = true
	}
	var stops []query.Match
	st.VisitStructuredTuples("merged", func(ref store.TupleRef, tp core.EpisodeTuple) bool {
		if tp.Kind == episode.Stop {
			stops = append(stops, query.Match{Ref: ref, Tuple: tp})
		}
		return true
	})
	want := 0
	for i := range stops {
		for j := range stops {
			if !colocPairOK(&stops[i], &stops[j]) {
				continue
			}
			want++
			if !got[refPair{stops[i].Ref, stops[j].Ref}] {
				t.Fatalf("join missed pair %+v / %+v after quiescence", stops[i].Ref, stops[j].Ref)
			}
		}
	}
	if want != len(got) {
		t.Fatalf("join returned %d pairs, brute force %d", len(got), want)
	}
	// The workload is deterministic and known to co-locate stops; an empty
	// join would make the completeness check vacuous.
	if want == 0 {
		t.Fatal("workload produced no co-located stops; completeness check was vacuous")
	}
}
