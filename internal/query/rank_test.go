package query

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/segment"
	"semitri/internal/store"
)

// structuredAddr names one structured trajectory the order test writes.
type structuredAddr struct {
	object, traj, interp string
}

// compareAddr is the canonical order, written here independently of
// stRow.compare: object, then trajectory, then interpretation.
func compareAddr(a, b structuredAddr) int {
	return cmp.Or(strings.Compare(a.object, b.object), strings.Compare(a.traj, b.traj), strings.Compare(a.interp, b.interp))
}

// orderFixture lists structured trajectories whose string order differs
// from any simple interning order: object ids one a prefix of another ("a"
// and "ab", "u1" and "u10"), trajectory ids that sort unlike their numbers
// (T1 < T10 < T9), and two interpretations of the same trajectories.
func orderFixture() []structuredAddr {
	var addrs []structuredAddr
	for _, obj := range []string{"u2", "u10", "u1", "ab", "a", "b"} {
		for _, tj := range []string{"T9", "T10", "T1"} {
			addrs = append(addrs, structuredAddr{obj, obj + "-" + tj, DefaultInterpretation})
			if obj != "b" {
				addrs = append(addrs, structuredAddr{obj, obj + "-" + tj, "line"})
			}
		}
	}
	slices.SortFunc(addrs, compareAddr)
	return addrs
}

// writeInOrder appends each structured trajectory's tuples, one trajectory
// after another in the given order, so an engine attached beforehand interns
// them in that order. Every trajectory overlaps the others in time and
// space, so windows, annotations and joins nominate candidates of many
// trajectories at once. freeze, when non-nil, runs after every fifth
// trajectory.
func writeInOrder(t *testing.T, st *store.Store, addrs []structuredAddr, seed int64, freeze func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for n, a := range addrs {
		at := t0.Add(time.Duration(rng.Intn(60)) * time.Minute)
		for i := 0; i < 6; i++ {
			kind, an := episode.Move, ann(core.AnnTransportMode, "walk")
			if i%2 == 0 {
				kind, an = episode.Stop, ann(core.AnnPOICategory, []string{"shop", "park"}[rng.Intn(2)])
			}
			end := at.Add(time.Duration(10+rng.Intn(30)) * time.Minute)
			tp := mkTuple(kind, at, end, geo.Pt(rng.Float64()*1000, rng.Float64()*1000), an)
			if err := st.AppendStructuredTuples(a.traj, a.object, a.interp, tp); err != nil {
				t.Fatal(err)
			}
			at = end
		}
		if freeze != nil && n%5 == 4 {
			freeze()
		}
	}
}

// bruteCanonical is every stored tuple of the canonically sorted addrs, read
// back through Store.Structured, in canonical order.
func bruteCanonical(t *testing.T, st *store.Store, addrs []structuredAddr) []stored {
	t.Helper()
	var all []stored
	for _, a := range addrs {
		s, ok := st.Structured(a.traj, a.interp)
		if !ok {
			t.Fatalf("%+v not stored", a)
		}
		for i, tp := range s.Tuples {
			all = append(all, stored{ref: store.TupleRef{TrajectoryID: a.traj, ObjectID: a.object, Interpretation: a.interp, Index: i}, tp: tp})
		}
	}
	return all
}

// TestCandidateOrderIgnoresInterningOrder builds heap and tiered stores whose
// structured trajectories are interned in reverse and in random canonical
// order — ranked by NewEngine's backfill, then one by one as they are
// interned — and checks that the annotation, object-time and spatial paths and
// a co-location join return exactly the brute-force answer over Structured
// in canonical order, with and without a limit, at workers 1, 2 and 4. An
// engine that ordered candidates by interned number rather than canonical
// rank fails it.
func TestCandidateOrderIgnoresInterningOrder(t *testing.T) {
	canonical := orderFixture()
	reversed := slices.Clone(canonical)
	slices.Reverse(reversed)
	shuffled := slices.Clone(canonical)
	rand.New(rand.NewSource(50)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	stop := episode.Stop
	window := geo.NewRect(geo.Pt(100, 100), geo.Pt(900, 900))
	queries := []struct {
		q    Query
		path Path
	}{
		{Query{AnnKey: core.AnnPOICategory, AnnValue: "shop"}, PathAnnotation},
		{Query{AnnKey: core.AnnPOICategory, AnnValue: "park", Interpretation: "line", From: t0.Add(time.Hour)}, PathAnnotation},
		{Query{ObjectID: "a"}, PathObjectTime},
		{Query{ObjectID: "u1", Interpretation: "line", To: t0.Add(2 * time.Hour)}, PathObjectTime},
		{Query{Window: &window}, PathSpatial},
		{Query{Kind: &stop, Near: &geo.Point{X: 500, Y: 500}, Radius: 350}, PathSpatial},
	}
	join := Join{
		Left:  Query{Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: "shop"},
		Right: Query{Kind: &stop},
		On:    JoinOn{Within: 20 * time.Minute, MaxDistance: 300, DistinctObjects: true},
	}
	for _, order := range []struct {
		name  string
		addrs []structuredAddr
	}{{"reverse", reversed}, {"random", shuffled}} {
		// The heap engine backfills the first half, ranking it at once, and
		// ranks the second half as it is interned; the tiered one ranks
		// every trajectory as it is interned.
		heap := store.NewSharded(4)
		half := len(order.addrs) / 2
		writeInOrder(t, heap, order.addrs[:half], 7, nil)
		heapEng := NewEngine(heap)
		writeInOrder(t, heap, order.addrs[half:], 8, nil)
		tiered, tier, _, err := segment.Recover(t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		tieredEng := NewEngine(tiered)
		writeInOrder(t, tiered, order.addrs[:half], 7, nil)
		writeInOrder(t, tiered, order.addrs[half:], 8, func() {
			if err := tier.Freeze(tiered); err != nil {
				t.Fatal(err)
			}
		})
		for _, c := range []struct {
			name string
			st   *store.Store
			e    *Engine
		}{{"heap", heap, heapEng}, {"tiered", tiered, tieredEng}} {
			all := bruteCanonical(t, c.st, canonical)
			for _, workers := range []int{1, 2, 4} {
				c.e.SetParallelism(workers)
				c.e.SetSerialThreshold(1)
				label := fmt.Sprintf("%s %s workers=%d", order.name, c.name, workers)
				for _, qc := range queries {
					for _, limit := range []int{0, 3} {
						q := qc.q
						q.Limit = limit
						got, plan, err := c.e.ExecuteExplained(q)
						if err != nil {
							t.Fatal(err)
						}
						if plan.Path != qc.path {
							t.Fatalf("%s: %+v planned %s, want %s", label, q, plan, qc.path)
						}
						want := wantRefs(q, all)
						if limit > 0 && len(want) > limit {
							want = want[:limit]
						}
						if len(want) == 0 {
							t.Fatalf("%s: %+v matches nothing; the fixture must give it rows to order", label, q)
						}
						if g := gotRefs(got); !reflect.DeepEqual(g, want) {
							t.Fatalf("%s: %+v\ngot  %v\nwant %v", label, q, g, want)
						}
					}
				}
				var pairs [][2]store.TupleRef
				for _, l := range all {
					for _, r := range all {
						if bruteMatches(join.Left, l) && bruteMatches(join.Right, r) && brutePair(join.On, l, r) {
							pairs = append(pairs, [2]store.TupleRef{l.ref, r.ref})
						}
					}
				}
				if len(pairs) < 4 {
					t.Fatalf("%s: the join pairs only %d rows", label, len(pairs))
				}
				for _, limit := range []int{0, 3} {
					j := join
					j.Limit = limit
					got, err := c.e.ExecuteJoin(j)
					if err != nil {
						t.Fatal(err)
					}
					want := pairs
					if limit > 0 {
						want = want[:limit]
					}
					g := make([][2]store.TupleRef, len(got))
					for i, m := range got {
						g[i] = [2]store.TupleRef{m.Left.Ref, m.Right.Ref}
					}
					if !reflect.DeepEqual(g, want) {
						t.Fatalf("%s: join limit %d\ngot  %v\nwant %v", label, limit, g, want)
					}
				}
			}
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRanks reports how v's ranks break the canonical order of its rows,
// or "" when they do not: rank and order must invert each other, and rows
// read in rank order must be the rows sorted by compareAddr.
func checkRanks(v stView) string {
	if len(v.rank) != len(v.rows) || len(v.order) != len(v.rows) {
		return fmt.Sprintf("%d rows, %d ranks, %d in order", len(v.rows), len(v.rank), len(v.order))
	}
	want := make([]structuredAddr, len(v.rows))
	for i, r := range v.rows {
		want[i] = structuredAddr{r.object, r.traj, r.interp}
	}
	slices.SortStableFunc(want, compareAddr)
	for r, id := range v.order {
		if v.rank[id] != uint32(r) {
			return fmt.Sprintf("row %d is at rank %d but ranked %d", id, r, v.rank[id])
		}
		if got := v.rows[id]; (structuredAddr{got.object, got.traj, got.interp}) != want[r] {
			return fmt.Sprintf("rank %d holds %+v, want %+v", r, got, want[r])
		}
	}
	return ""
}

// TestInternRanksCanonically interns random object and trajectory strings
// and checks the ranks of the table's snapshots: after rankAll over rows
// interned unranked, as a backfill does, and after each intern of four
// concurrent writers, a snapshot ranks its rows in canonical string order;
// a snapshot taken early on must still rank its own rows so, unchanged,
// after every later intern.
func TestInternRanksCanonically(t *testing.T) {
	pieces := []string{"a", "b", "ab", "u1", "u10", "-T9", "-T10"}
	randomRef := func(rng *rand.Rand) store.TupleRef {
		word := func() string {
			var b strings.Builder
			for n := rng.Intn(3); n >= 0; n-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
			return b.String()
		}
		return store.TupleRef{ObjectID: word(), TrajectoryID: word(),
			Interpretation: []string{DefaultInterpretation, "line"}[rng.Intn(2)]}
	}
	tab := stTable{unranked: true}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		tab.intern(randomRef(rng))
	}
	tab.rankAll()
	if msg := checkRanks(tab.snapshot()); msg != "" {
		t.Fatal("after rankAll: " + msg)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var early stView
			var earlyRank, earlyOrder []uint32
			for i := 0; i < 120; i++ {
				tab.intern(randomRef(rng))
				v := tab.snapshot()
				if msg := checkRanks(v); msg != "" {
					errs <- msg
					return
				}
				if i == 20 {
					early, earlyRank, earlyOrder = v, slices.Clone(v.rank), slices.Clone(v.order)
				}
			}
			if msg := checkRanks(early); msg != "" {
				errs <- "early snapshot: " + msg
			} else if !slices.Equal(early.rank, earlyRank) || !slices.Equal(early.order, earlyOrder) {
				errs <- "a later intern wrote into an early snapshot"
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if v := tab.snapshot(); len(v.rows) != 60+4*120 {
		t.Fatalf("%d rows interned, want %d", len(v.rows), 60+4*120)
	}
}
