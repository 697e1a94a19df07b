package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/store"
)

// randomJoinOn draws a valid join predicate: at least one pairing clause,
// never both SameObject and DistinctObjects.
func randomJoinOn(rng *rand.Rand) JoinOn {
	for {
		var on JoinOn
		switch rng.Intn(3) {
		case 0:
			on.TimeOverlap = true
		case 1:
			on.Within = time.Duration(1+rng.Intn(180)) * time.Minute
		}
		if rng.Intn(2) == 0 {
			on.MaxDistance = 100 + rng.Float64()*1500
		}
		if rng.Intn(4) == 0 {
			on.SameAnnKey = core.AnnPOICategory
		}
		switch rng.Intn(4) {
		case 0:
			on.SameObject = true
		case 1:
			on.DistinctObjects = true
		}
		if on.Validate() == nil {
			return on
		}
	}
}

// brutePair is the test's own pair-predicate evaluation, written against the
// documented JoinOn semantics rather than sharing code with pairMatches.
func brutePair(on JoinOn, l, r stored) bool {
	if on.SameObject && l.ref.ObjectID != r.ref.ObjectID {
		return false
	}
	if on.DistinctObjects && l.ref.ObjectID == r.ref.ObjectID {
		return false
	}
	if on.TimeOverlap || on.Within > 0 {
		if l.tp.TimeIn.After(r.tp.TimeOut.Add(on.Within)) ||
			r.tp.TimeIn.After(l.tp.TimeOut.Add(on.Within)) {
			return false
		}
	}
	if on.MaxDistance > 0 {
		if l.tp.Episode == nil || r.tp.Episode == nil ||
			l.tp.Episode.Center.DistanceTo(r.tp.Episode.Center) > on.MaxDistance {
			return false
		}
	}
	if on.SamePlace {
		if l.tp.PlaceID() == "" || l.tp.PlaceID() != r.tp.PlaceID() {
			return false
		}
	}
	if k := on.SameAnnKey; k != "" {
		lv := l.tp.Annotations.Value(k)
		if lv == "" || lv != r.tp.Annotations.Value(k) {
			return false
		}
	}
	return true
}

type refPair struct{ l, r store.TupleRef }

// bruteJoin is the nested-loop reference the planned execution is checked
// against: every (left, right) stored pair passing both side predicates and
// the pair predicate.
func bruteJoin(j Join, all []stored) map[refPair]bool {
	want := map[refPair]bool{}
	for _, l := range all {
		if !bruteMatches(j.Left, l) {
			continue
		}
		for _, r := range all {
			if !bruteMatches(j.Right, r) {
				continue
			}
			if brutePair(j.On, l, r) {
				want[refPair{l.ref, r.ref}] = true
			}
		}
	}
	return want
}

// TestJoinMatchesBruteForce is the join's quick-check: random workloads,
// random side queries, random join predicates — the build/probe execution
// must return exactly the nested-loop reference's pairs, in canonical order,
// no matter which side the planner built or which access paths the probes
// ran through.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := store.NewSharded(8)
	e := NewEngine(st)
	all := populate(t, st, 43, 6, 3, 10)
	for i := 0; i < 120; i++ {
		j := Join{Left: randomQuery(rng), Right: randomQuery(rng), On: randomJoinOn(rng)}
		pairs, jp, err := e.ExecuteJoinExplained(j)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("join %d (on %+v, plan %s)", i, j.On, jp)
		want := bruteJoin(j, all)
		got := map[refPair]bool{}
		for k := range pairs {
			p := refPair{pairs[k].Left.Ref, pairs[k].Right.Ref}
			if got[p] {
				t.Fatalf("%s: duplicate pair %+v", label, p)
			}
			got[p] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%s: missing pair %+v", label, p)
			}
		}
		for k := 1; k < len(pairs); k++ {
			if pairs[k].less(&pairs[k-1]) {
				t.Fatalf("%s: pairs out of canonical order at %d", label, k)
			}
		}
	}
}

// TestJoinPlanBuildsSmallerSide pins the build-side decision on a workload
// where the right answer is unambiguous: a selective annotation query joined
// against a full scan must be built, whichever side it is written on, and
// every probe of the scan side must run through a real access path for the
// spatially constrained probe queries.
func TestJoinPlanBuildsSmallerSide(t *testing.T) {
	st := store.NewSharded(8)
	e := NewEngine(st)
	populate(t, st, 7, 6, 3, 12)

	selective := MustBuild(OnlyStops(), WithAnnotation(core.AnnPOICategory, "restaurant"))
	everything := Query{}
	on := JoinOn{Within: time.Hour, MaxDistance: 300, DistinctObjects: true}

	pairs, jp, err := e.ExecuteJoinExplained(Join{Left: selective, Right: everything, On: on})
	if err != nil {
		t.Fatal(err)
	}
	if jp.BuildSide != SideLeft {
		t.Fatalf("selective left side not chosen as build: %s", jp)
	}
	if jp.LeftEstimate >= jp.RightEstimate {
		t.Fatalf("estimates did not separate the sides: %s", jp)
	}
	if jp.Build.Path != PathAnnotation {
		t.Fatalf("build side executed through %s, want %s (%s)", jp.Build.Path, PathAnnotation, jp)
	}
	// Every build row carries geometry, so every probe must have planned —
	// and with a 300 m disc pinned per row, none may fall back to a scan.
	probes := 0
	for path, n := range jp.ProbePaths {
		probes += n
		if path == PathScan {
			t.Fatalf("probe fell back to a full scan: %s", jp)
		}
	}
	if probes == 0 {
		t.Fatalf("no probes recorded: %s", jp)
	}

	flipped, fp, err := e.ExecuteJoinExplained(Join{Left: everything, Right: selective, On: on})
	if err != nil {
		t.Fatal(err)
	}
	if fp.BuildSide != SideRight {
		t.Fatalf("selective right side not chosen as build: %s", fp)
	}
	// The same join written either way around must produce the same pair set
	// with sides swapped.
	if len(flipped) != len(pairs) {
		t.Fatalf("flipped join found %d pairs, original %d", len(flipped), len(pairs))
	}
	seen := map[refPair]bool{}
	for _, p := range pairs {
		seen[refPair{p.Left.Ref, p.Right.Ref}] = true
	}
	for _, p := range flipped {
		if !seen[refPair{p.Right.Ref, p.Left.Ref}] {
			t.Fatalf("flipped pair %+v/%+v missing from original", p.Left.Ref, p.Right.Ref)
		}
	}
}

// TestJoinSamePlace checks the place-equality clause on tuples that actually
// link places (populate's workload has none).
func TestJoinSamePlace(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	cafe := &core.Place{ID: "poi-cafe", Kind: core.PointPlace, Name: "cafe", Extent: geo.RectAround(geo.Pt(100, 100), 20)}
	park := &core.Place{ID: "roi-park", Kind: core.RegionPlace, Name: "park", Extent: geo.RectAround(geo.Pt(900, 900), 200)}
	mk := func(obj string, place *core.Place, at time.Time) {
		tp := mkTuple(episode.Stop, at, at.Add(30*time.Minute), geo.Pt(100, 100))
		tp.Place = place
		if err := st.AppendStructuredTuples(obj+"-T0", obj, DefaultInterpretation, tp); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", cafe, t0)
	mk("b", cafe, t0.Add(10*time.Minute))
	mk("c", park, t0.Add(5*time.Minute))
	mk("d", nil, t0) // no place: can never satisfy SamePlace

	pairs, err := e.ExecuteJoin(Join{
		Left:  MustBuild(OnlyStops()),
		Right: MustBuild(OnlyStops()),
		On:    JoinOn{TimeOverlap: true, SamePlace: true, DistinctObjects: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2 (a~b both ways): %+v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.Left.Tuple.PlaceID() != "poi-cafe" || p.Right.Tuple.PlaceID() != "poi-cafe" {
			t.Fatalf("pair outside the shared place: %+v", p)
		}
	}
}

// TestJoinValidation pins the construction-time errors.
func TestJoinValidation(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	cases := []struct {
		name string
		j    Join
	}{
		{"no pairing clause", Join{On: JoinOn{}}},
		{"same and distinct", Join{On: JoinOn{TimeOverlap: true, SameObject: true, DistinctObjects: true}}},
		{"negative within", Join{On: JoinOn{Within: -time.Hour}}},
		{"negative distance", Join{On: JoinOn{TimeOverlap: true, MaxDistance: -1}}},
		{"NaN distance", Join{On: JoinOn{MaxDistance: math.NaN()}}},
		{"infinite distance", Join{On: JoinOn{MaxDistance: math.Inf(1)}}},
		{"left side limit", Join{Left: Query{Limit: 3}, On: JoinOn{TimeOverlap: true}}},
		{"right side limit", Join{Right: Query{Limit: 3}, On: JoinOn{TimeOverlap: true}}},
		{"negative join limit", Join{On: JoinOn{TimeOverlap: true}, Limit: -1}},
		{"invalid side", Join{Left: Query{Radius: 5}, On: JoinOn{TimeOverlap: true}}},
	}
	for _, c := range cases {
		if _, err := e.ExecuteJoin(c.j); err == nil {
			t.Errorf("%s: ExecuteJoin accepted an invalid join", c.name)
		}
		if _, err := e.ExplainJoin(c.j); err == nil {
			t.Errorf("%s: ExplainJoin accepted an invalid join", c.name)
		}
	}
}

// TestJoinLimit checks that Join.Limit truncates the canonical order, i.e.
// the limited result is a prefix of the unlimited one.
func TestJoinLimit(t *testing.T) {
	st := store.NewSharded(4)
	e := NewEngine(st)
	populate(t, st, 11, 4, 2, 8)
	j := Join{
		Left:  MustBuild(OnlyStops()),
		Right: MustBuild(OnlyStops()),
		On:    JoinOn{Within: 2 * time.Hour, DistinctObjects: true},
	}
	all, err := e.ExecuteJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 5 {
		t.Fatalf("workload produced only %d pairs; the limit test needs more", len(all))
	}
	j.Limit = 3
	capped, err := e.ExecuteJoin(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Fatalf("limit 3 returned %d pairs", len(capped))
	}
	for i := range capped {
		if capped[i].Left.Ref != all[i].Left.Ref || capped[i].Right.Ref != all[i].Right.Ref {
			t.Fatalf("limited pair %d is not the unlimited prefix", i)
		}
	}
}
