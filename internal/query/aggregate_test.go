package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/store"
)

// bruteGroups is the test's own aggregation: fold rows (key, object,
// duration) with an independent reimplementation of the metric and ranking
// semantics.
func bruteGroups(a Aggregate, rows []struct {
	key string
	obj string
	dur time.Duration
}) []Group {
	count := map[string]int{}
	objects := map[string]map[string]bool{}
	durs := map[string]time.Duration{}
	for _, r := range rows {
		count[r.key]++
		if objects[r.key] == nil {
			objects[r.key] = map[string]bool{}
		}
		objects[r.key][r.obj] = true
		durs[r.key] += r.dur
	}
	var out []Group
	for key, n := range count {
		g := Group{Key: key, Count: n}
		switch a.Metric {
		case "", MetricCount:
			g.Value = float64(n)
		case MetricDistinctObjects:
			g.Value = float64(len(objects[key]))
		case MetricDuration:
			g.Value = durs[key].Seconds()
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if a.K > 0 && len(out) > a.K {
		out = out[:a.K]
	}
	return out
}

func sameGroups(t *testing.T, label string, got, want []Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d (%+v vs %+v)", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: group %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestAggregateMatchesBruteForce checks every dimension × metric combination
// over a random workload against the independent fold. The engine's matches
// feed both sides, so this pins the key extraction, the metric accumulation,
// the deterministic ranking and the top-K truncation.
func TestAggregateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := store.NewSharded(8)
	e := NewEngine(st)
	populate(t, st, 17, 6, 3, 12)

	dims := []Aggregate{
		{By: DimObject},
		{By: DimTrajectory},
		{By: DimKind},
		{By: DimAnnotation, AnnKey: core.AnnPOICategory},
		{By: DimAnnotation, AnnKey: core.AnnTransportMode},
	}
	metrics := []Metric{"", MetricCount, MetricDistinctObjects, MetricDuration}
	for i := 0; i < 24; i++ {
		q := randomQuery(rng)
		ms, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range dims {
			for _, m := range metrics {
				a := base
				a.Metric = m
				a.K = rng.Intn(4) // 0 = all
				got, err := e.AggregateMatches(a, ms)
				if err != nil {
					t.Fatal(err)
				}
				var rows []struct {
					key string
					obj string
					dur time.Duration
				}
				for k := range ms {
					mm := &ms[k]
					key, ok := a.key(&mm.Ref, &mm.Tuple)
					if !ok {
						continue
					}
					rows = append(rows, struct {
						key string
						obj string
						dur time.Duration
					}{key, mm.Ref.ObjectID, mm.Tuple.Duration()})
				}
				sameGroups(t, fmt.Sprintf("query %d by %s/%s metric %q", i, a.By, a.AnnKey, m),
					got, bruteGroups(a, rows))
			}
		}
	}
}

// TestAggregatePairsBruteForce does the same over join results: keys come
// from the left side, distinct objects count the right side, duration is the
// pairwise interval overlap.
func TestAggregatePairsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := store.NewSharded(8)
	e := NewEngine(st)
	populate(t, st, 18, 5, 2, 10)

	for i := 0; i < 20; i++ {
		j := Join{Left: randomQuery(rng), Right: randomQuery(rng), On: randomJoinOn(rng)}
		pairs, err := e.ExecuteJoin(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{MetricCount, MetricDistinctObjects, MetricDuration} {
			a := Aggregate{By: DimObject, Metric: m, K: rng.Intn(3)}
			got, err := e.AggregatePairs(a, pairs)
			if err != nil {
				t.Fatal(err)
			}
			var rows []struct {
				key string
				obj string
				dur time.Duration
			}
			for k := range pairs {
				p := &pairs[k]
				rows = append(rows, struct {
					key string
					obj string
					dur time.Duration
				}{p.Left.Ref.ObjectID, p.Right.Ref.ObjectID, overlap(&p.Left.Tuple, &p.Right.Tuple)})
			}
			sameGroups(t, fmt.Sprintf("join %d metric %q", i, m), got, bruteGroups(a, rows))
		}
	}
}

// TestOverlap pins the pairwise interval-overlap arithmetic.
func TestOverlap(t *testing.T) {
	mk := func(in, out int) *core.EpisodeTuple {
		return &core.EpisodeTuple{TimeIn: t0.Add(time.Duration(in) * time.Minute), TimeOut: t0.Add(time.Duration(out) * time.Minute)}
	}
	cases := []struct {
		l, r *core.EpisodeTuple
		want time.Duration
	}{
		{mk(0, 60), mk(30, 90), 30 * time.Minute},
		{mk(30, 90), mk(0, 60), 30 * time.Minute},
		{mk(0, 30), mk(30, 60), 0},                 // touching: zero-length overlap
		{mk(0, 30), mk(40, 60), 0},                 // disjoint
		{mk(0, 100), mk(20, 40), 20 * time.Minute}, // containment
	}
	for i, c := range cases {
		if got := overlap(c.l, c.r); got != c.want {
			t.Errorf("case %d: overlap = %v, want %v", i, got, c.want)
		}
	}
}

// TestAggregateValidate pins the construction-time errors.
func TestAggregateValidate(t *testing.T) {
	bad := []Aggregate{
		{},                                // no dimension
		{By: "city"},                      // unknown dimension
		{By: DimAnnotation},               // ann without key
		{By: DimObject, AnnKey: "x"},      // key on a non-ann dimension
		{By: DimObject, Metric: "median"}, // unknown metric
		{By: DimObject, K: -1},            // negative top-K
	}
	e := NewEngine(store.NewSharded(1))
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, a)
		}
		if _, err := e.AggregateMatches(a, nil); err == nil {
			t.Errorf("case %d: AggregateMatches accepted %+v", i, a)
		}
		if _, err := e.AggregatePairs(a, nil); err == nil {
			t.Errorf("case %d: AggregatePairs accepted %+v", i, a)
		}
	}
}

// TestRankTopKTiesAtCut checks the top-K selection against a full sort of
// every group, for every K from none to past the group count, over folds
// whose values tie in runs that straddle the cut: the K groups kept, and
// their order, are the full ranking's first K, ties broken by key.
func TestRankTopKTiesAtCut(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	tiedCuts := 0
	for trial := 0; trial < 50; trial++ {
		a := Aggregate{By: DimPlace}
		g := newGroups(&a)
		n := 1 + rng.Intn(40)
		for _, i := range rng.Perm(n) {
			key := fmt.Sprintf("g%02d", i)
			for range 1 + rng.Intn(3) { // three values: long runs of ties
				g.add(key, "", 0)
			}
		}
		var all []Group
		for key, acc := range g.acc {
			all = append(all, Group{Key: key, Count: acc.count, Value: float64(acc.count)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Value != all[j].Value {
				return all[i].Value > all[j].Value
			}
			return all[i].Key < all[j].Key
		})
		for k := 0; k <= n+1; k++ {
			a.K = k
			want := all
			if k > 0 && k < n {
				want = all[:k]
				if all[k-1].Value == all[k].Value {
					tiedCuts++
				}
			}
			sameGroups(t, fmt.Sprintf("trial %d, %d groups, top %d", trial, n, k), a.rank(g), want)
		}
	}
	if tiedCuts == 0 {
		t.Fatal("no cut fell inside a run of ties")
	}
}
