package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/store"
)

// ingestLive streams a randomized workload into the store from several
// goroutines (disjoint objects, honouring the store's per-trajectory
// single-writer contract), exercising all three notification paths: tuple
// appends, in-place annotation merges and whole-interpretation replacements.
func ingestLive(t *testing.T, st *store.Store, seed int64, workers, objectsPerWorker, trajPerObject, tuplesPerTraj int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			categories := []string{"restaurant", "shop", "office", "park", "station"}
			modes := []string{"walk", "bus", "car"}
			for o := 0; o < objectsPerWorker; o++ {
				obj := fmt.Sprintf("u%d", w*objectsPerWorker+o)
				for tj := 0; tj < trajPerObject; tj++ {
					id := fmt.Sprintf("%s-T%d", obj, tj)
					at := t0.Add(time.Duration(tj) * 24 * time.Hour)
					for i := 0; i < tuplesPerTraj; i++ {
						kind := episode.Move
						var anns []core.Annotation
						if i%2 == 0 {
							kind = episode.Stop
							anns = append(anns, ann(core.AnnPOICategory, categories[rng.Intn(len(categories))]))
						} else {
							anns = append(anns, ann(core.AnnTransportMode, modes[rng.Intn(len(modes))]))
						}
						end := at.Add(time.Duration(5+rng.Intn(40)) * time.Minute)
						center := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
						tp := mkTuple(kind, at, end, center, anns...)
						if err := st.AppendStructuredTuples(id, obj, DefaultInterpretation, tp); err != nil {
							errs[w] = err
							return
						}
						at = end
					}
					// Exercise the in-place update path on one tuple of the
					// trajectory (the streaming close path's merge).
					if err := st.MergeTupleAnnotations(id, DefaultInterpretation, rng.Intn(tuplesPerTraj), nil,
						[]core.Annotation{ann(core.AnnPOICategory, categories[rng.Intn(len(categories))])}); err != nil {
						errs[w] = err
						return
					}
					// Occasionally replace the whole interpretation, retracting
					// earlier content (the standing queries must unmatch it).
					if rng.Intn(4) == 0 {
						repl := &core.StructuredTrajectory{ID: id, ObjectID: obj, Interpretation: DefaultInterpretation}
						for i := 0; i < tuplesPerTraj/2; i++ {
							at := t0.Add(time.Duration(tj)*24*time.Hour + time.Duration(i)*time.Hour)
							repl.Tuples = append(repl.Tuples, mkTuple(episode.Stop, at, at.Add(30*time.Minute),
								geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
								ann(core.AnnPOICategory, categories[rng.Intn(len(categories))])))
						}
						if err := st.PutStructured(repl); err != nil {
							errs[w] = err
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandingParityWithEngine is the live pipeline's property test: N
// random standing queries registered before ingestion, fed purely from the
// store's event stream, must report exactly the matched-ref set a quiescent
// engine query computes from the indexes — across appends, in-place updates
// and replacements, with racing ingest goroutines (run under -race).
func TestStandingParityWithEngine(t *testing.T) {
	st := store.NewSharded(8)
	e := NewEngine(st)
	// Central ring sized so evaluation never drops: parity is only promised
	// at drop rate zero (see TestStandingDropsStayGenuine for the lossy case).
	l := NewLive(st, 1<<16)
	defer l.Close()
	st.AttachIndex(e, l.Tap())

	rng := rand.New(rand.NewSource(99))
	const nStanding = 64
	standing := make([]*Standing, 0, nStanding)
	for i := 0; i < nStanding; i++ {
		s, err := l.Register(randomQuery(rng), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		standing = append(standing, s)
	}

	ingestLive(t, st, 7, 4, 2, 3, 12)
	l.Sync()

	if d := l.EvalDrops(); d != 0 {
		t.Fatalf("central ring dropped %d events; parity run must be lossless", d)
	}
	for i, s := range standing {
		ms, err := e.Execute(s.Query())
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("standing %d (%+v)", i, s.Query())
		sameRefSet(t, label, s.Matched(), gotRefs(ms))
		if s.Drops() == 0 {
			// Lossless delivery: folding the notification stream must land on
			// the same set (match/unmatch transitions balance exactly).
			folded := map[store.TupleRef]bool{}
			for _, n := range s.Sub().Drain(nil) {
				switch n.Kind {
				case NotifyMatch:
					if folded[n.Match.Ref] {
						t.Fatalf("%s: double match for %+v", label, n.Match.Ref)
					}
					folded[n.Match.Ref] = true
				case NotifyUnmatch:
					if !folded[n.Match.Ref] {
						t.Fatalf("%s: unmatch without match for %+v", label, n.Match.Ref)
					}
					delete(folded, n.Match.Ref)
				}
			}
			refs := make([]store.TupleRef, 0, len(folded))
			for r := range folded {
				refs = append(refs, r)
			}
			sameRefSet(t, label+" (notification fold)", refs, gotRefs(ms))
		}
	}
}

// TestStandingDropsStayGenuine forces heavy backpressure (tiny rings) and
// asserts the weaker guarantee that survives any drop rate: every delivered
// match/update notification carried a tuple that truly satisfied the
// predicate, and the matched set never contains a fabricated ref.
func TestStandingDropsStayGenuine(t *testing.T) {
	st := store.NewSharded(4)
	e := NewEngine(st)
	l := NewLive(st, 4) // tiny central ring: evaluation itself drops
	defer l.Close()
	st.AttachIndex(e, l.Tap())

	rng := rand.New(rand.NewSource(5))
	q := randomQuery(rng)
	s, err := l.Register(q, 2) // tiny delivery ring: delivery drops too
	if err != nil {
		t.Fatal(err)
	}
	ingestLive(t, st, 11, 4, 2, 2, 10)
	l.Sync()

	qq := s.Query()
	for _, n := range s.Sub().Drain(nil) {
		if n.Kind == NotifyUnmatch {
			continue
		}
		tp := n.Match.Tuple
		if !bruteMatches(qq, stored{ref: n.Match.Ref, tp: &tp}) {
			t.Fatalf("delivered %s notification does not satisfy the predicate: %+v", n.Kind, n.Match.Ref)
		}
	}
	// Every matched ref must be genuine: resolvable or at least once true.
	// With drops the set may be incomplete but never fabricated — each entry
	// came from a real store event that satisfied the predicate.
	ms, err := e.Execute(qq)
	if err != nil {
		t.Fatal(err)
	}
	engineSet := map[store.TupleRef]bool{}
	for _, m := range ms {
		engineSet[m.Ref] = true
	}
	for _, ref := range s.Matched() {
		if !engineSet[ref] {
			// The ref matched at evaluation time; with no replacements racing
			// after Sync it must still be in the engine's answer unless its
			// content was later replaced. Resolve to check it ever existed.
			if _, ok := st.TupleAt(ref.TrajectoryID, ref.Interpretation, ref.Index); !ok {
				t.Fatalf("matched ref %+v never existed in the store", ref)
			}
		}
	}
}

// TestStandingTransitions walks one ref through match → update → unmatch →
// replacement retraction, checking each notification kind.
func TestStandingTransitions(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	l := NewLive(st, 64)
	defer l.Close()
	st.AttachIndex(e, l.Tap())

	s, err := l.Register(Query{AnnKey: core.AnnPOICategory, AnnValue: "park"}, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Append without the annotation: no match.
	tp := mkTuple(episode.Stop, t0, t0.Add(time.Hour), geo.Pt(10, 10))
	if err := st.AppendStructuredTuples("u1-T0", "u1", DefaultInterpretation, tp); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	if n := s.MatchedCount(); n != 0 {
		t.Fatalf("matched %d before the annotation exists", n)
	}

	// Merge the annotation in: the update path must produce a match.
	if err := st.MergeTupleAnnotations("u1-T0", DefaultInterpretation, 0, nil,
		[]core.Annotation{ann(core.AnnPOICategory, "park")}); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	if n := s.MatchedCount(); n != 1 {
		t.Fatalf("matched %d after merge, want 1", n)
	}

	// Replace the interpretation with non-matching content: retraction.
	repl := &core.StructuredTrajectory{ID: "u1-T0", ObjectID: "u1", Interpretation: DefaultInterpretation}
	repl.Tuples = append(repl.Tuples,
		mkTuple(episode.Stop, t0, t0.Add(time.Hour), geo.Pt(10, 10), ann(core.AnnPOICategory, "shop")))
	if err := st.PutStructured(repl); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	if n := s.MatchedCount(); n != 0 {
		t.Fatalf("matched %d after replacement, want 0", n)
	}

	kinds := []string{}
	for _, n := range s.Sub().Drain(nil) {
		kinds = append(kinds, n.Kind)
	}
	want := []string{NotifyMatch, NotifyUnmatch}
	if len(kinds) != len(want) {
		t.Fatalf("notification kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("notification kinds = %v, want %v", kinds, want)
		}
	}
}

func TestLiveRegisterValidation(t *testing.T) {
	st := store.New()
	l := NewLive(st, 16)

	if _, err := l.Register(Query{Limit: 5}, 8); err != ErrStandingLimit {
		t.Fatalf("Limit query: err = %v, want ErrStandingLimit", err)
	}
	if _, err := l.Register(Query{Radius: 10}, 8); err == nil {
		t.Fatal("invalid query accepted")
	}
	s, err := l.Register(Query{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.StandingCount(); got != 1 {
		t.Fatalf("StandingCount = %d, want 1", got)
	}
	s.Close()
	s.Close() // idempotent
	if got := l.StandingCount(); got != 0 {
		t.Fatalf("StandingCount after close = %d, want 0", got)
	}
	l.Close()
	l.Close() // idempotent
	if _, err := l.Register(Query{}, 8); err != ErrLiveClosed {
		t.Fatalf("register after close: err = %v, want ErrLiveClosed", err)
	}
	// Publishing into a closed dispatcher must be a harmless no-op (the tee
	// may still be attached while the store keeps mutating).
	l.Tap().TuplesAppended([]store.TupleEvent{{}})
}
