package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/segment"
	"semitri/internal/store"
)

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

// mkTuple builds an episode-backed tuple (the shape the pipeline stores).
func mkTuple(kind episode.Kind, start, end time.Time, center geo.Point, anns ...core.Annotation) *core.EpisodeTuple {
	ep := &episode.Episode{
		Kind:   kind,
		Start:  start,
		End:    end,
		Center: center,
		Bounds: geo.RectAround(center, 30),
	}
	tp := &core.EpisodeTuple{Kind: kind, TimeIn: start, TimeOut: end, Episode: ep}
	for _, a := range anns {
		tp.Annotations.Add(a)
	}
	return tp
}

func ptr[T any](v T) *T { return &v }

func ann(key, value string) core.Annotation {
	return core.Annotation{Key: key, Value: value, Confidence: 0.9, Source: "test"}
}

// stored mirrors what the test wrote into the store: the reference the
// engine is checked against, filtered by an independent reimplementation of
// the predicate semantics.
type stored struct {
	ref store.TupleRef
	tp  *core.EpisodeTuple
}

// bruteMatches is the test's own predicate evaluation, deliberately written
// against the documented semantics rather than sharing code with Query.
func bruteMatches(q Query, s stored) bool {
	interp := q.Interpretation
	if interp == "" {
		interp = DefaultInterpretation
	}
	if s.ref.Interpretation != interp {
		return false
	}
	if q.ObjectID != "" && s.ref.ObjectID != q.ObjectID {
		return false
	}
	if q.TrajectoryID != "" && s.ref.TrajectoryID != q.TrajectoryID {
		return false
	}
	if q.Kind != nil && s.tp.Kind != *q.Kind {
		return false
	}
	if !q.From.IsZero() && s.tp.TimeOut.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && s.tp.TimeIn.After(q.To) {
		return false
	}
	if q.AnnKey != "" && s.tp.Annotations.Value(q.AnnKey) != q.AnnValue {
		return false
	}
	if q.Window != nil && (s.tp.Episode == nil || !s.tp.Episode.Bounds.Intersects(*q.Window)) {
		return false
	}
	if q.Near != nil && (s.tp.Episode == nil || s.tp.Episode.Center.DistanceTo(*q.Near) > q.Radius) {
		return false
	}
	return true
}

func wantRefs(q Query, all []stored) []store.TupleRef {
	var out []store.TupleRef
	for _, s := range all {
		if bruteMatches(q, s) {
			out = append(out, s.ref)
		}
	}
	return out
}

func gotRefs(ms []Match) []store.TupleRef {
	var out []store.TupleRef
	for _, m := range ms {
		out = append(out, m.Ref)
	}
	return out
}

func sameRefSet(t *testing.T, label string, got, want []store.TupleRef) {
	t.Helper()
	gs := map[store.TupleRef]bool{}
	for _, r := range got {
		if gs[r] {
			t.Fatalf("%s: duplicate result %+v", label, r)
		}
		gs[r] = true
	}
	if len(gs) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(gs), len(want))
	}
	for _, r := range want {
		if !gs[r] {
			t.Fatalf("%s: missing %+v", label, r)
		}
	}
}

// populate writes a deterministic random tuple workload and returns the
// mirror. With an engine already attached the appends exercise live index
// maintenance; without one, NewEngine's backfill.
func populate(t *testing.T, st *store.Store, seed int64, objects, trajPerObject, tuplesPerTraj int) []stored {
	t.Helper()
	return populateInterp(t, st, seed, DefaultInterpretation, objects, trajPerObject, tuplesPerTraj)
}

// populateInterp is populate into the named interpretation: the same
// trajectory ids and the same 2 km square, so the geometry of two
// interpretations overlaps. A move's bounds reach up to 800 m from its
// centre, further on some sides than on others, as a long move's do.
func populateInterp(t *testing.T, st *store.Store, seed int64, interp string, objects, trajPerObject, tuplesPerTraj int) []stored {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	categories := []string{"restaurant", "shop", "office", "park", "station"}
	modes := []string{"walk", "bus", "car"}
	var all []stored
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("u%d", o)
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
				if kind == episode.Move {
					reach := func() float64 { return 10 + rng.Float64()*790 }
					tp.Episode.Bounds = geo.NewRect(
						geo.Pt(center.X-reach(), center.Y-reach()),
						geo.Pt(center.X+reach(), center.Y+reach()))
				}
				if err := st.AppendStructuredTuples(id, obj, interp, tp); err != nil {
					t.Fatal(err)
				}
				all = append(all, stored{
					ref: store.TupleRef{TrajectoryID: id, ObjectID: obj, Interpretation: interp, Index: i},
					tp:  tp,
				})
				at = end
			}
		}
	}
	return all
}

// The far object's tuples lie outside the years UnixNano can represent
// (1678–2262), in a non-UTC location: far-T0 from farPast, far-T1 from
// farFuture, tuple i spanning [i·farStep, i·farStep + farStep/2] of its
// base. randomQuery aims some windows at their boundaries to the
// nanosecond, so the time index must order and filter them exactly.
var (
	farZone   = time.FixedZone("UTC-7", -7*3600)
	farPast   = time.Date(1492, 10, 12, 6, 0, 0, 0, farZone)
	farFuture = time.Date(2400, 2, 29, 23, 0, 0, 0, farZone)
)

const (
	farStep   = 20 * time.Minute
	farTuples = 12
)

// populateFar writes the far object's two trajectories and returns their
// mirror.
func populateFar(t *testing.T, st *store.Store) []stored {
	t.Helper()
	var all []stored
	for tj, base := range []time.Time{farPast, farFuture} {
		id := fmt.Sprintf("far-T%d", tj)
		for i := 0; i < farTuples; i++ {
			in := base.Add(time.Duration(i) * farStep)
			kind, a := episode.Move, ann(core.AnnTransportMode, "walk")
			if i%2 == 0 {
				kind, a = episode.Stop, ann(core.AnnPOICategory, "shop")
			}
			tp := mkTuple(kind, in, in.Add(farStep/2), geo.Pt(float64(100+150*i), float64(300+900*tj)), a)
			if err := st.AppendStructuredTuples(id, "far", DefaultInterpretation, tp); err != nil {
				t.Fatal(err)
			}
			all = append(all, stored{
				ref: store.TupleRef{TrajectoryID: id, ObjectID: "far", Interpretation: DefaultInterpretation, Index: i},
				tp:  tp,
			})
		}
	}
	return all
}

func randomQuery(rng *rand.Rand) Query {
	var q Query
	if rng.Intn(3) == 0 {
		q.ObjectID = fmt.Sprintf("u%d", rng.Intn(6))
		if rng.Intn(3) == 0 {
			q.ObjectID = "far"
		}
	}
	if rng.Intn(4) == 0 {
		q.TrajectoryID = fmt.Sprintf("u%d-T%d", rng.Intn(6), rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		k := episode.Stop
		if rng.Intn(2) == 0 {
			k = episode.Move
		}
		q.Kind = &k
	}
	if rng.Intn(2) == 0 {
		from := t0.Add(time.Duration(rng.Intn(72)) * time.Hour)
		q.From = from
		q.To = from.Add(time.Duration(1+rng.Intn(24)) * time.Hour)
		if q.ObjectID == "far" || rng.Intn(3) == 0 {
			// Straddle the far object's tuples: each end on or a
			// nanosecond beside a TimeIn or TimeOut of either trajectory,
			// so some windows span the centuries between the two.
			at := func() time.Time {
				base := farPast
				if rng.Intn(2) == 0 {
					base = farFuture
				}
				return base.Add(time.Duration(rng.Intn(2*farTuples+2))*farStep/2 + time.Duration(rng.Intn(3)-1))
			}
			q.From, q.To = at(), at()
			if q.To.Before(q.From) {
				q.From, q.To = q.To, q.From
			}
		}
	}
	if rng.Intn(2) == 0 {
		q.AnnKey = core.AnnPOICategory
		q.AnnValue = []string{"restaurant", "shop", "office"}[rng.Intn(3)]
	}
	// A window, a disc, both or neither; with both, the disc's bounding box
	// often misses the window.
	spatial := rng.Intn(5)
	if spatial == 0 || spatial == 2 {
		w := geo.RectAround(geo.Pt(rng.Float64()*2000, rng.Float64()*2000), 100+rng.Float64()*500)
		q.Window = &w
	}
	if spatial == 1 || spatial == 2 {
		p := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		q.Near = &p
		q.Radius = 100 + rng.Float64()*500
	}
	return q
}

// TestEngineMatchesBruteForce is the engine's quick-check: random workloads,
// random queries, engine results must equal an independent brute-force
// filter — both when the engine was built after the data (backfill) and
// when it was attached before (live maintenance). A second interpretation
// overlaps the first in space, and every interpretation gets window and
// radius queries with and without a kind, so each spatial partition is
// read on its own and in pairs.
func TestEngineMatchesBruteForce(t *testing.T) {
	for _, mode := range []string{"backfill", "live"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			st := store.NewSharded(8)
			var e *Engine
			if mode == "live" {
				e = NewEngine(st)
			}
			all := append(populate(t, st, 42, 6, 3, 12), populateFar(t, st)...)
			all = append(all, populateInterp(t, st, 43, "region", 6, 3, 12)...)
			if mode == "backfill" {
				e = NewEngine(st)
			}
			check := func(label string, q Query) Plan {
				t.Helper()
				ms, plan, err := e.ExecuteExplained(q)
				if err != nil {
					t.Fatal(err)
				}
				label = fmt.Sprintf("%s (%+v, plan %s)", label, q, plan)
				sameRefSet(t, label, gotRefs(ms), wantRefs(q, all))
				for j := 1; j < len(ms); j++ {
					if !ms[j-1].less(&ms[j]) {
						t.Fatalf("%s: results out of order at %d", label, j)
					}
				}
				return plan
			}
			interpRng := rand.New(rand.NewSource(78))
			disjoint := 0 // answered queries whose disc's box misses the window
			for i := 0; i < 200; i++ {
				q := randomQuery(rng)
				if interpRng.Intn(3) == 0 {
					q.Interpretation = "region"
				}
				check(fmt.Sprintf("query %d", i), q)
				if q.Window != nil && q.Near != nil && len(wantRefs(q, all)) > 0 &&
					!q.Window.Intersects(geo.RectAround(*q.Near, q.Radius)) {
					disjoint++
				}
			}
			if disjoint == 0 {
				t.Fatal("no answered query had a window its disc's bounding box misses")
			}
			spatialPlans := 0
			for _, interp := range []string{DefaultInterpretation, "region"} {
				for _, kind := range []*episode.Kind{nil, ptr(episode.Stop), ptr(episode.Move)} {
					for i := 0; i < 10; i++ {
						c := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
						w := geo.RectAround(c, 50+rng.Float64()*300)
						q := Query{Interpretation: interp, Kind: kind, Window: &w}
						if i%2 == 1 {
							q = Query{Interpretation: interp, Kind: kind, Near: &c, Radius: 50 + rng.Float64()*300}
						}
						if check(fmt.Sprintf("spatial %s %d", interp, i), q).Path == PathSpatial {
							spatialPlans++
						}
					}
				}
			}
			if spatialPlans == 0 {
				t.Fatal("no window or radius query took the spatial path")
			}
			if stats := e.IndexStats(); stats.IndexedTuples != len(all) {
				t.Fatalf("IndexStats.IndexedTuples = %d want %d", stats.IndexedTuples, len(all))
			}
		})
	}
}

// TestEngineReplaceAndUpdate exercises the two non-append write paths:
// PutStructured replacement and MergeTupleAnnotations re-annotation.
func TestEngineReplaceAndUpdate(t *testing.T) {
	st := store.New()
	e := NewEngine(st)

	old := mkTuple(episode.Stop, t0, t0.Add(time.Hour), geo.Pt(100, 100), ann(core.AnnPOICategory, "shop"))
	if err := st.AppendStructuredTuples("u1-T0", "u1", "merged", old); err != nil {
		t.Fatal(err)
	}
	// Replace the interpretation with different content.
	repl := &core.StructuredTrajectory{ID: "u1-T0", ObjectID: "u1", Interpretation: "merged"}
	repl.Tuples = append(repl.Tuples,
		mkTuple(episode.Stop, t0, t0.Add(30*time.Minute), geo.Pt(500, 500), ann(core.AnnPOICategory, "park")))
	if err := st.PutStructured(repl); err != nil {
		t.Fatal(err)
	}
	if ms, _ := e.Execute(Query{AnnKey: core.AnnPOICategory, AnnValue: "shop"}); len(ms) != 0 {
		t.Fatalf("stale annotation survived replacement: %+v", ms)
	}
	ms, err := e.Execute(Query{AnnKey: core.AnnPOICategory, AnnValue: "park"})
	if err != nil || len(ms) != 1 || ms[0].Ref.Index != 0 {
		t.Fatalf("replacement content not queryable: %+v, %v", ms, err)
	}

	// Re-annotate through the store (the streaming close path).
	if err := st.MergeTupleAnnotations("u1-T0", "merged", 0, nil,
		[]core.Annotation{ann(core.AnnActivity, "leisure")}); err != nil {
		t.Fatal(err)
	}
	ms, err = e.Execute(Query{AnnKey: core.AnnActivity, AnnValue: "leisure"})
	if err != nil || len(ms) != 1 {
		t.Fatalf("updated annotation not queryable: %+v, %v", ms, err)
	}
	if ms[0].Tuple.Annotations.Value(core.AnnPOICategory) != "park" {
		t.Fatal("update lost existing annotations")
	}
	if err := st.MergeTupleAnnotations("u1-T0", "merged", 7, nil, nil); err == nil {
		t.Fatal("merge into a missing tuple should fail")
	}
}

// TestPlannerPicksSelectivePath pins the access-path selection on a
// workload where the right answer is unambiguous.
func TestPlannerPicksSelectivePath(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	all := populate(t, st, 3, 8, 2, 20)
	if len(all) == 0 {
		t.Fatal("empty workload")
	}

	cases := []struct {
		name string
		q    Query
		want Path
	}{
		{"trajectory beats all", Query{TrajectoryID: "u0-T0", ObjectID: "u0", AnnKey: core.AnnPOICategory, AnnValue: "shop"}, PathTrajectory},
		{"annotation when selective", Query{AnnKey: core.AnnPOICategory, AnnValue: "restaurant"}, PathAnnotation},
		{"object for object queries", Query{ObjectID: "u1", From: t0, To: t0.Add(2 * time.Hour)}, PathObjectTime},
		{"spatial when only geometry", Query{Near: &geo.Point{X: 100, Y: 100}, Radius: 50}, PathSpatial},
		{"scan when nothing is indexed", Query{Kind: func() *episode.Kind { k := episode.Stop; return &k }()}, PathScan},
	}
	for _, c := range cases {
		plan, err := e.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Path != c.want {
			t.Fatalf("%s: planned %s, want %s (%s)", c.name, plan.Path, c.want, plan)
		}
		if plan.String() == "" {
			t.Fatalf("%s: empty plan string", c.name)
		}
	}
}

// TestPlanStringGolden pins the rendering EXPLAIN, ?trace=1 and the README
// show: available paths in rank order, the chosen one starred. Tuple i is a
// 60 m square centred in column i%59 of a row of 250 m columns; the window
// reaches the squares of columns 0–13. The 611 stops form one partition: a
// 512-item tree (tuples 0–511), a 64-item tree (512–575) and a 35-item
// buffer (576–610). Every tree sorts by x, so its leaves are runs of 16
// squares along the row. The big tree holds 9 tuples in each of columns
// 0–13, at x-ranks 0–125; STR cuts it into slices of 6 leaves, so ranks
// 0–95 fill 6 leaves and ranks 96–127 two more: 8 leaves, 128 entries. The
// small tree holds one tuple in each of columns 0–13, all in its first
// leaf: 16 entries. The buffer is counted exactly: columns 0–13 hold one
// tuple each, 14. So the window estimates 128 + 16 + 14 = 158.
func TestPlanStringGolden(t *testing.T) {
	const column = 250.0
	st := store.New()
	e := NewEngine(st)
	for i := 0; i < 611; i++ {
		category := "shop"
		if i < 7 {
			category = "museum"
		}
		at := t0.Add(time.Duration(i) * time.Minute)
		center := geo.Pt(column*(float64(i%59)+0.5), column/2)
		tp := mkTuple(episode.Stop, at, at.Add(time.Minute), center, ann(core.AnnPOICategory, category))
		if err := st.AppendStructuredTuples("u0-T0", "u0", DefaultInterpretation, tp); err != nil {
			t.Fatal(err)
		}
	}
	window := geo.NewRect(geo.Pt(10, 10), geo.Pt(13.5*column, 200))
	plan, err := e.Explain(Query{AnnKey: core.AnnPOICategory, AnnValue: "museum", Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.String(), "*annotation≈7 spatial≈158 full-scan≈611"; got != want {
		t.Fatalf("plan renders as %q, want %q", got, want)
	}
}

// TestPlanningDoesNotAllocate asserts the one planner keeps the property the
// join probe loop depends on: estimating all five paths and picking one
// touches no heap.
func TestPlanningDoesNotAllocate(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	populate(t, st, 3, 8, 2, 20)
	f, err := compile(Query{
		TrajectoryID: "u0-T0", ObjectID: "u0", From: t0, To: t0.Add(48 * time.Hour),
		AnnKey: core.AnnPOICategory, AnnValue: "shop",
		Near: &geo.Point{X: 1000, Y: 1000}, Radius: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	var plan Plan
	if allocs := testing.AllocsPerRun(100, func() { plan = e.plan(&f) }); allocs != 0 {
		t.Fatalf("planning a four-predicate query allocates %.0f times, want 0", allocs)
	}
	for r, avail := range plan.est.avail {
		if !avail {
			t.Fatalf("path %s was not estimated: %s", rankedPaths[r], plan)
		}
	}
}

// TestValidateRejects is the table of malformed predicate sets
// Query.Validate refuses; a Query literal is checked by it, here and on
// every execution.
func TestValidateRejects(t *testing.T) {
	w := geo.RectAround(geo.Pt(100, 100), 50)
	ok := Query{
		ObjectID: "u1", TrajectoryID: "u1-T0", Interpretation: "merged", Kind: ptr(episode.Stop),
		From: t0, To: t0.Add(time.Hour), AnnKey: core.AnnPOICategory, AnnValue: "restaurant",
		Window: &w, Near: &geo.Point{X: 5, Y: 5}, Radius: 100, Limit: 7,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("a well-formed query is refused: %v", err)
	}
	bad := []struct {
		name string
		q    Query
	}{
		{"zero radius", Query{Near: &geo.Point{}, Radius: 0}},
		{"negative radius", Query{Near: &geo.Point{}, Radius: -5}},
		{"window ends before it starts", Query{From: t0.Add(time.Hour), To: t0}},
		{"negative limit", Query{Limit: -1}},
		{"value without key", Query{AnnValue: "restaurant"}},
		{"empty window", Query{Window: &geo.Rect{Min: geo.Pt(5, 5), Max: geo.Pt(1, 1)}}},
	}
	for _, c := range bad {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.q)
		}
	}
}

// TestQueryValidation pins the error cases and the limit. NaN and ±Inf in
// Near, Radius or Window are among them: they compare false against every
// bound, so the spatial path (0 matches) and matches (every tuple) would
// disagree on them.
func TestQueryValidation(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	populate(t, st, 5, 2, 1, 8)

	nan, inf := math.NaN(), math.Inf(1)
	bad := []Query{
		{Near: &geo.Point{}, Radius: 0},
		{Radius: 5},
		{From: t0.Add(time.Hour), To: t0},
		{Limit: -1},
		{AnnValue: "x"},
		{Window: &geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}},
		{Near: &geo.Point{X: 100, Y: 100}, Radius: nan},
		{Near: &geo.Point{X: nan, Y: 100}, Radius: 50},
		{Near: &geo.Point{X: 100, Y: -inf}, Radius: 50},
		{Near: &geo.Point{X: 100, Y: 100}, Radius: inf},
		{Radius: nan},
		{Window: &geo.Rect{Min: geo.Pt(nan, 0), Max: geo.Pt(100, 100)}},
		{Window: &geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, nan)}},
		{Window: &geo.Rect{Min: geo.Pt(-inf, -inf), Max: geo.Pt(inf, inf)}},
	}
	for i, q := range bad {
		if _, err := e.Execute(q); err == nil {
			t.Fatalf("bad query %d (%+v) accepted", i, q)
		}
	}
	msAll, err := e.Execute(Query{})
	if err != nil || len(msAll) == 0 {
		t.Fatalf("zero query: %v, %d", err, len(msAll))
	}
	ms2, err := e.Execute(Query{Limit: 3})
	if err != nil || len(ms2) != 3 {
		t.Fatalf("limit: %v, %d", err, len(ms2))
	}
	if !reflect.DeepEqual(gotRefs(ms2), gotRefs(msAll)[:3]) {
		t.Fatal("limit must truncate the sorted result, not an arbitrary subset")
	}
}

// TestHugeRadiusAnswersExactly: a finite radius of 6.5753e11 m covers more
// grid buckets than an int64 product can count. The spatial path must still
// return the brute-force answer promptly, for a query and for a join probing
// at that distance, instead of walking a wrapped bucket range.
func TestHugeRadiusAnswersExactly(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	all := populate(t, st, 3, 8, 2, 20)
	const huge = 657530941875
	q := Query{Near: &geo.Point{}, Radius: huge}
	join := Join{Left: Query{TrajectoryID: "u0-T0"}, Right: Query{}, On: JoinOn{MaxDistance: huge}}
	var (
		ms          []Match
		plan        Plan
		pairs, want []JoinMatch
		errs        [3]error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ms, plan, errs[0] = e.ExecuteExplained(q)
		pairs, errs[1] = e.ExecuteJoin(join)
		// The whole 2 km domain is within 1e7 m of everything, so this join
		// pairs the same tuples over a bucket range that fits an int64.
		join.On.MaxDistance = 1e7
		want, errs[2] = e.ExecuteJoin(join)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("huge-radius query did not return within 5s")
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if plan.Path != PathSpatial {
		t.Fatalf("planned %s, want the spatial path under test", plan)
	}
	sameRefSet(t, "huge radius", gotRefs(ms), wantRefs(q, all))
	if len(want) == 0 || !reflect.DeepEqual(pairs, want) {
		t.Fatalf("huge-distance join: %d pairs, want the %d of the 1e7 m join", len(pairs), len(want))
	}
}

// TestEngineIndexBytesPerTuple pins the engine's index footprint: the live
// heap NewEngine's backfill adds, per indexed tuple, over a store with three
// interpretations, three annotations per tuple and move rectangles from
// 60 m to 3 km across. Postings that copied a store.TupleRef (56 B, three
// pointers) into every index, with two time.Times per time posting and a
// boxed value per grid bucket entry, measured 1,050 B/tuple; 8-byte
// interned postings measured 237 B/tuple beside a hash grid, and measure
// 170 B/tuple beside one packed STR forest per (interpretation, kind)
// (linux/amd64, Go 1.24). The bound of 300 fails the first 3.5×.
// IndexStats' IndexBytes must agree with the measured heap within ±25 %.
func TestEngineIndexBytesPerTuple(t *testing.T) {
	const (
		objects       = 40
		trajPerObject = 5
		tuplesPerTraj = 40
		bound         = 300
	)
	interps := []string{DefaultInterpretation, "region", "line"}
	rng := rand.New(rand.NewSource(33))
	st := store.New()
	tuples := 0
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("u%02d", o)
		for tj := 0; tj < trajPerObject; tj++ {
			id := fmt.Sprintf("%s-T%d", obj, tj)
			for _, interp := range interps {
				at := t0.Add(time.Duration(tj) * 24 * time.Hour)
				for i := 0; i < tuplesPerTraj; i++ {
					end := at.Add(time.Duration(5+rng.Intn(40)) * time.Minute)
					center := geo.Pt(rng.Float64()*20000, rng.Float64()*20000)
					kind, first := episode.Stop, ann(core.AnnPOICategory, fmt.Sprintf("cat%d", rng.Intn(8)))
					if i%2 == 1 {
						kind, first = episode.Move, ann(core.AnnTransportMode, fmt.Sprintf("mode%d", rng.Intn(4)))
					}
					tp := mkTuple(kind, at, end, center, first,
						ann(core.AnnActivity, fmt.Sprintf("act%d", rng.Intn(6))),
						ann("place", fmt.Sprintf("p%d", rng.Intn(500))))
					if kind == episode.Move {
						// 60 m, 1.2 km or 3 km across.
						tp.Episode.Bounds = geo.RectAround(center, []float64{30, 600, 1500}[i/2%3])
					}
					if err := st.AppendStructuredTuples(id, obj, interp, tp); err != nil {
						t.Fatal(err)
					}
					tuples++
					at = end
				}
			}
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(st)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)

	stats := e.IndexStats()
	if stats.IndexedTuples != tuples {
		t.Fatalf("IndexedTuples = %d, want %d", stats.IndexedTuples, tuples)
	}
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perTuple := float64(delta) / float64(tuples)
	t.Logf("live heap: %.1f B/tuple (%d B over %d tuples); IndexBytes %d", perTuple, delta, tuples, stats.IndexBytes)
	if perTuple > bound {
		t.Fatalf("live heap %.1f B/tuple, want <= %d", perTuple, bound)
	}
	if ratio := float64(stats.IndexBytes) / float64(delta); ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("IndexBytes %d is %.2f× the measured %d B, want within ±25%%", stats.IndexBytes, ratio, delta)
	}
}

// TestWindowNearDisjoint: a query may set a window and a radius whose
// bounding box misses the window. A long move whose bounds reach the window
// while its centre lies in the disc matches both, so the two must not be
// gathered through their (empty) intersection. The case is checked on a
// heap store and on a tiered store after a freeze (where the segment check
// reads the same clauses), by a query and by a join whose probe adds the
// disc to a window.
func TestWindowNearDisjoint(t *testing.T) {
	window := geo.NewRect(geo.Pt(900, -5), geo.Pt(1000, 5))
	q := Query{Window: &window, Near: &geo.Point{X: 100, Y: 0}, Radius: 50}
	join := Join{
		Left:  Query{ObjectID: "a"},
		Right: Query{Window: &window},
		On:    JoinOn{MaxDistance: 50, DistinctObjects: true},
	}
	// One move per object: bounds (0,−10)–(1000,10), centre (100,0).
	put := func(st *store.Store) {
		for _, obj := range []string{"a", "b"} {
			tp := mkTuple(episode.Move, t0, t0.Add(time.Hour), geo.Pt(100, 0))
			tp.Episode.Bounds = geo.NewRect(geo.Pt(0, -10), geo.Pt(1000, 10))
			if err := st.AppendStructuredTuples(obj+"-T0", obj, DefaultInterpretation, tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string, st *store.Store) {
		t.Helper()
		e := NewEngine(st)
		ms, plan, err := e.ExecuteExplained(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("%s: %d matches (plan %s), want both moves", label, len(ms), plan)
		}
		one := q
		one.ObjectID = "a"
		if ms, err = e.Execute(one); err != nil || len(ms) != 1 {
			t.Fatalf("%s: object a: %d matches (%v), want 1", label, len(ms), err)
		}
		pairs, jp, err := e.ExecuteJoinExplained(join)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 1 || pairs[0].Left.Ref.ObjectID != "a" || pairs[0].Right.Ref.ObjectID != "b" {
			t.Fatalf("%s: join returned %d pairs (plan %s), want a ⋈ b", label, len(pairs), jp)
		}
	}
	heap := store.New()
	put(heap)
	check("heap", heap)

	tiered, tier, _, err := segment.Recover(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	put(tiered)
	if err := tier.Freeze(tiered); err != nil {
		t.Fatal(err)
	}
	if tier.SegmentCount() == 0 {
		t.Fatal("nothing froze")
	}
	f, err := compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, sum := range tiered.ColdSummaries(nil) {
		if ok, rule := f.summaryAdmits(&sum); !ok {
			t.Fatalf("the segment check refutes the segment by its %s rule", rule)
		}
	}
	check("tiered", tiered)
}
