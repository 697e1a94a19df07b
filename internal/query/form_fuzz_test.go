package query

import (
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// fuzzBytes decodes fuzz input into queries, tuples and join predicates;
// once the input runs out every read is zero.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzBytes) pick(choices ...string) string { return choices[int(r.next())%len(choices)] }

// coord is a coordinate in 10 m steps over ±1.28 km.
func (r *fuzzBytes) coord() float64 { return float64(int8(r.next())) * 10 }

// at is a time within ±128 minutes of t0.
func (r *fuzzBytes) at() time.Time { return t0.Add(time.Duration(int8(r.next())) * time.Minute) }

func (r *fuzzBytes) ann() (key, value string) {
	return r.pick("", core.AnnPOICategory, core.AnnTransportMode), r.pick("", "shop", "walk")
}

// query decodes a Query, valid or not: two flag bytes say which fields
// follow, in field order.
func (r *fuzzBytes) query() Query {
	var q Query
	flags := int(r.next()) | int(r.next())<<8
	if flags&1 != 0 {
		q.ObjectID = r.pick("a", "b")
	}
	if flags&2 != 0 {
		q.TrajectoryID = r.pick("a-T0", "a-T1", "b-T0")
	}
	if flags&4 != 0 {
		q.Interpretation = r.pick(DefaultInterpretation, "region")
	}
	if flags&8 != 0 {
		q.Kind = ptr(episode.Kind(r.next() % 2))
	}
	if flags&16 != 0 {
		q.From = r.at()
	}
	if flags&32 != 0 {
		q.To = r.at()
	}
	if flags&64 != 0 {
		q.AnnKey, q.AnnValue = r.ann()
	}
	if flags&128 != 0 {
		w := geo.Rect{Min: geo.Pt(r.coord(), r.coord()), Max: geo.Pt(r.coord(), r.coord())}
		q.Window = &w
	}
	if flags&256 != 0 {
		q.Near, q.Radius = &geo.Point{X: r.coord(), Y: r.coord()}, float64(r.next())*5
	}
	if flags&512 != 0 {
		q.Limit = int(int8(r.next()))
	}
	return q
}

// tuple decodes one stored tuple. An episode's bounds reach a different
// distance from its centre on each side, but always hold it, as the
// pipeline's do.
func (r *fuzzBytes) tuple() stored {
	obj := r.pick("a", "b")
	ref := store.TupleRef{ObjectID: obj, TrajectoryID: obj + r.pick("-T0", "-T1"),
		Interpretation: r.pick(DefaultInterpretation, "region")}
	in := r.at()
	tp := &core.EpisodeTuple{TimeIn: in, TimeOut: in.Add(time.Duration(r.next()) * time.Minute),
		Kind: episode.Kind(r.next() % 2)}
	if k, v := r.ann(); k != "" && v != "" {
		tp.Annotations.Add(ann(k, v))
	}
	if id := r.pick("", "p1", "p2"); id != "" {
		tp.Place = &core.Place{ID: id}
	}
	if r.next()%4 != 0 {
		c := geo.Pt(r.coord(), r.coord())
		reach := func() float64 { return float64(r.next()) * 10 }
		tp.Episode = &episode.Episode{Kind: tp.Kind, Start: tp.TimeIn, End: tp.TimeOut, Center: c,
			Bounds: geo.Rect{Min: geo.Pt(c.X-reach(), c.Y-reach()), Max: geo.Pt(c.X+reach(), c.Y+reach())}}
	}
	return stored{ref: ref, tp: tp}
}

// joinOn decodes a join predicate, valid or not.
func (r *fuzzBytes) joinOn() JoinOn {
	flags := r.next()
	on := JoinOn{TimeOverlap: flags&1 != 0, SamePlace: flags&8 != 0,
		SameObject: flags&32 != 0, DistinctObjects: flags&64 != 0}
	if flags&2 != 0 {
		on.Within = time.Duration(r.next()) * time.Minute
	}
	if flags&4 != 0 {
		on.MaxDistance = float64(r.next()) * 5
	}
	if flags&16 != 0 {
		on.SameAnnKey, _ = r.ann()
	}
	return on
}

// FuzzQueryForm checks the normal form against the documented query
// semantics (bruteMatches, brutePair) on any query, pair of tuples and join
// predicate the input decodes to:
//   - a query compiles exactly when it is valid, and its tuple check agrees
//     with bruteMatches;
//   - the cold scan's run skip never refutes a run holding an admitted
//     tuple: of each run of the tuples (each alone, and both), folded as a
//     segment's run directory folds it (wal.Span), the kind and time
//     clauses' MayHold holds whenever the run holds a tuple f admits;
//   - every access path the planner can take returns exactly the admitted
//     tuples, so no gather drops one;
//   - the conjunction of two forms admits a tuple exactly when both do;
//   - what a build row pins admits a probe tuple exactly when the pair
//     predicate, but for DistinctObjects and SamePlace, holds.
//
// The seed is a window whose disc's bounding box misses it, over two long
// moves whose bounds reach the window while their centres lie in the disc.
func FuzzQueryForm(f *testing.F) {
	f.Add([]byte{
		0x80, 0x01, 90, 0xff, 100, 1, 10, 0, 10, // window (900,−10)–(1000,10), near (100,0) r 50
		0x00, 0x00, // the empty query
		0, 0, 0, 0, 60, 0, 0, 0, 0, 1, 10, 0, 10, 1, 90, 1, // a's move: centre (100,0), bounds (0,−10)–(1000,10)
		1, 0, 0, 0, 60, 0, 0, 0, 0, 1, 10, 0, 10, 1, 90, 1, // b's move, the same
		0x44, 10, // distance 50, distinct objects
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data}
		qa, qb := r.query(), r.query()
		tuples := []stored{r.tuple(), r.tuple()}
		on := r.joinOn()

		st := store.New()
		for i := range tuples {
			s := &tuples[i]
			s.ref.Index = st.TupleCount(s.ref.TrajectoryID, s.ref.Interpretation)
			if err := st.AppendStructuredTuples(s.ref.TrajectoryID, s.ref.ObjectID, s.ref.Interpretation, s.tp); err != nil {
				t.Fatal(err)
			}
		}
		fa, err := compile(qa)
		if (err == nil) != (qa.Validate() == nil) {
			t.Fatalf("compile error %v, Validate error %v", err, qa.Validate())
		}
		if err != nil {
			return
		}
		var want []store.TupleRef
		for _, s := range tuples {
			ok := fa.admits(s.ref, s.tp)
			if ok != bruteMatches(qa, s) {
				t.Fatalf("tuple check %v on %+v, want %v", ok, s.ref, !ok)
			}
			if !ok {
				continue
			}
			want = append(want, s.ref)
		}
		for _, run := range [][]stored{tuples[:1], tuples[1:], tuples} {
			var span wal.Span
			for i, s := range run {
				span.Add(i, s.tp.Kind, s.tp.TimeIn, s.tp.TimeOut)
			}
			if store.TupleFilter(fa.admitsSpan).MayHold(span.Stops, len(run)-span.Stops, span.Min, span.Max) {
				continue
			}
			for _, s := range run {
				if fa.admits(s.ref, s.tp) {
					t.Fatalf("the run skip refutes a run of span %+v holding admitted %+v", span, s.ref)
				}
			}
		}

		e := NewEngine(st)
		fa.limit = 0
		var est estimates
		e.estimatePaths(&fa, &est)
		for rank, path := range rankedPaths {
			if est.avail[rank] {
				var s sink
				e.executeBuf(&fa, path, &s, 1, nil)
				sameRefSet(t, string(path), gotRefs(s.out), want)
			}
		}

		if fb, err := compile(qb); err == nil {
			var fab form
			fab.and(&fa, &fb)
			for _, s := range tuples {
				if got, want := fab.admits(s.ref, s.tp), fa.admits(s.ref, s.tp) && fb.admits(s.ref, s.tp); got != want {
					t.Fatalf("conjunction admits %+v: %v, the two forms: %v", s.ref, got, want)
				}
			}
		}

		if on.Validate() != nil {
			return
		}
		b := tuples[0]
		var pin, probe form
		pinned := on
		pinned.DistinctObjects, pinned.SamePlace = false, false
		ok := on.pinInto(&pin, &Match{Ref: b.ref, Tuple: *b.tp})
		for _, s := range tuples {
			if !ok {
				if brutePair(on, b, s) {
					t.Fatalf("the row has nothing to pin, yet pairs with %+v", s.ref)
				}
				continue
			}
			probe.and(&fa, &pin)
			if got, want := probe.admits(s.ref, s.tp), fa.admits(s.ref, s.tp) && brutePair(pinned, b, s); got != want {
				t.Fatalf("probe admits %+v: %v, the side and the pair predicate: %v", s.ref, got, want)
			}
		}
	})
}
