package spatial

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"semitri/internal/geo"
)

// randomForestRect draws the geometry the engine's forest must hold: mostly
// points and small rectangles, plus the shapes a uniform grid could not
// bucket — rectangles spanning hundreds of 250 m cells, rectangles wider
// than an int64 count of such cells, ±1e300 and infinite extents — and the
// ones that intersect nothing: the empty rectangle and NaN corners.
func randomForestRect(rng *rand.Rand) geo.Rect {
	x, y := rng.Float64()*2000, rng.Float64()*2000
	switch k := rng.Intn(40); {
	case k < 18:
		return geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x, y)}
	case k < 32:
		return geo.NewRect(geo.Pt(x, y), geo.Pt(x+rng.Float64()*120, y+rng.Float64()*120))
	case k < 35:
		return geo.RectAround(geo.Pt(x, y), 2000+rng.Float64()*3000)
	case k == 35:
		return geo.RectAround(geo.Pt(x, y), 657530941875)
	case k == 36:
		return geo.NewRect(geo.Pt(-1e300, -1e300), geo.Pt(1e300, 1e300))
	case k == 37:
		return geo.Rect{Min: geo.Pt(math.Inf(-1), y), Max: geo.Pt(math.Inf(1), y)}
	case k == 38:
		return geo.EmptyRect()
	default:
		return geo.Rect{Min: geo.Pt(math.NaN(), y), Max: geo.Pt(x, math.NaN())}
	}
}

// randomQueryRect draws a probe: small and medium windows over the data,
// points, windows far outside it and windows over everything.
func randomQueryRect(rng *rand.Rand) geo.Rect {
	c := geo.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
	switch rng.Intn(8) {
	case 0:
		return geo.Rect{Min: c, Max: c}
	case 1:
		return geo.RectAround(geo.Pt(5e4+c.X, -5e4-c.Y), rng.Float64()*300)
	case 2:
		return geo.NewRect(geo.Pt(-1e300, -1e300), geo.Pt(1e300, 1e300))
	default:
		return geo.RectAround(c, rng.Float64()*400)
	}
}

// forestHits collects what f.Visit reports for r, stopping after limit hits
// when limit > 0.
func forestHits(f *Forest, r geo.Rect, limit int) []int32 {
	var out []int32
	f.Visit(r, func(id int32) bool {
		out = append(out, id)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// checkForestShape asserts the Bentley–Saxe invariant: trees cover
// consecutive runs of item numbers from 0, their sizes are B times distinct
// powers of two in decreasing order, and the buffer holds fewer than B.
func checkForestShape(t *testing.T, f *Forest) {
	t.Helper()
	covered := 0
	for i := range f.trees {
		n := len(f.trees[i].ids)
		if n%forestBuffer != 0 || (n/forestBuffer)&(n/forestBuffer-1) != 0 {
			t.Fatalf("tree %d holds %d items, want B·2^k", i, n)
		}
		if i > 0 && n >= len(f.trees[i-1].ids) {
			t.Fatalf("tree sizes not strictly decreasing at %d", i)
		}
		for _, id := range f.trees[i].ids {
			if int(id) < covered || int(id) >= covered+n {
				t.Fatalf("tree %d holds item %d outside its run [%d,%d)", i, id, covered, covered+n)
			}
		}
		covered += n
	}
	if covered != f.built || f.Len()-f.built >= forestBuffer {
		t.Fatalf("trees cover %d, built %d, buffer %d", covered, f.built, f.Len()-f.built)
	}
}

// TestForestMatchesBruteForce is the forest's quick-check: under a seeded
// random interleaving of Insert, Visit (with and without an early stop) and
// EstimateWithin over every shape randomForestRect draws, Visit reports
// exactly the rectangles a brute-force scan finds, each once, and the
// estimate lies between the true count and Len — and is 0 for a window
// outside everything inserted.
func TestForestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	for round := 0; round < 8; round++ {
		var (
			f      Forest
			rects  []geo.Rect
			bounds = geo.EmptyRect()
		)
		ops := 200 + rng.Intn(3000)
		for op := 0; op < ops; op++ {
			if rng.Intn(4) != 0 {
				r := randomForestRect(rng)
				if id := f.Insert(r); int(id) != len(rects) {
					t.Fatalf("Insert numbered item %d, want %d", id, len(rects))
				}
				rects = append(rects, r)
				bounds = unionValid(bounds, r)
				continue
			}
			q := randomQueryRect(rng)
			var want []int32
			for id, r := range rects {
				if r.Intersects(q) {
					want = append(want, int32(id))
				}
			}
			got := forestHits(&f, q, 0)
			seen := map[int32]bool{}
			for _, id := range got {
				if seen[id] || !rects[id].Intersects(q) {
					t.Fatalf("round %d op %d: Visit(%v) reported %d twice or wrongly", round, op, q, id)
				}
				seen[id] = true
			}
			if len(got) != len(want) {
				t.Fatalf("round %d op %d: Visit(%v) found %d, brute force %d", round, op, q, len(got), len(want))
			}
			if limit := 1 + rng.Intn(5); len(forestHits(&f, q, limit)) != min(limit, len(want)) {
				t.Fatalf("round %d op %d: Visit ignored a stop after %d hits", round, op, limit)
			}
			est := f.EstimateWithin(q)
			if est < len(want) || est > f.Len() {
				t.Fatalf("round %d op %d: estimate %d outside [%d, %d]", round, op, est, len(want), f.Len())
			}
			if !bounds.Intersects(q) && est != 0 {
				t.Fatalf("round %d op %d: estimate %d for a window outside everything", round, op, est)
			}
		}
		if f.Len() != len(rects) {
			t.Fatalf("Len = %d want %d", f.Len(), len(rects))
		}
		checkForestShape(t, &f)
	}
}

// itemForest pairs a Forest with the items its numbers stand for, the way
// the query engine keeps a parallel slice of postings.
type itemForest struct {
	Forest
	items []Item
}

// insert adds it, checking that the forest numbers items densely.
func (f *itemForest) insert(t *testing.T, it Item) {
	t.Helper()
	if id := f.Insert(it.Rect); int(id) != len(f.items) {
		t.Fatalf("Insert numbered item %d, want %d", id, len(f.items))
	}
	f.items = append(f.items, it)
}

// forestWithin collects the items of what f.Visit reports for r.
func forestWithin(f *itemForest, r geo.Rect) []Item {
	var out []Item
	f.Visit(r, func(id int32) bool {
		out = append(out, f.items[id])
		return true
	})
	return out
}

// The three TestHashGrid* tests below keep the names they had when the
// engine's incremental index was a uniform hash grid; they now hold the
// Forest that replaced it to the same checks.

// TestHashGridMatchesBruteForce: after every few insertions the incremental
// index must answer range and point queries exactly like a brute-force scan
// over the items inserted so far, and its estimate must stay within
// [0, Len].
func TestHashGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	for round := 0; round < 12; round++ {
		rectFraction := 0.0
		if round%2 == 1 {
			rectFraction = 0.3
		}
		items := randomItems(rng, 1+rng.Intn(300), rectFraction)
		f := &itemForest{}
		brute := &bruteForce{}
		for i, it := range items {
			f.insert(t, it)
			brute.items = append(brute.items, it)
			if i%17 != 0 && i != len(items)-1 {
				continue // query at a sample of prefixes, not all of them
			}
			if f.Len() != len(brute.items) {
				t.Fatalf("Len = %d want %d", f.Len(), len(brute.items))
			}
			for q := 0; q < 6; q++ {
				center := geo.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
				rect := geo.RectAround(center, rng.Float64()*300)
				sameValues(t, "forest Visit", forestWithin(f, rect), Within(brute, rect))
				point := geo.Rect{Min: center, Max: center}
				sameValues(t, "forest point Visit", forestWithin(f, point), Covering(brute, center))
				if est := f.EstimateWithin(rect); est < 0 || est > f.Len() {
					t.Fatalf("estimate over %v = %d (n=%d)", rect, est, f.Len())
				}
			}
		}
	}
}

// TestHashGridOversize: a rectangle spanning hundreds of 250 m cells (the
// shape the grid had to keep in an overflow list) is packed into a tree with
// small neighbours and still reported exactly once, both where it overlaps
// a point and where it is alone.
func TestHashGridOversize(t *testing.T) {
	f := &itemForest{}
	big := Item{Rect: geo.NewRect(geo.Pt(0, 0), geo.Pt(5000, 5000)), Value: 0}
	f.insert(t, big)
	f.insert(t, pointItem(100, 100, 1))
	for i := 2; i < 3*forestBuffer; i++ {
		f.insert(t, pointItem(1e4+float64(i), 1e4, i))
	}
	if f.built == 0 {
		t.Fatalf("big rect should be packed into a tree, buffer holds all %d", f.Len())
	}
	checkForestShape(t, &f.Forest)
	got := forestWithin(f, geo.RectAround(geo.Pt(100, 100), 5))
	sameValues(t, "oversize Visit", got, []Item{big, pointItem(100, 100, 1)})
	got = forestWithin(f, geo.RectAround(geo.Pt(4000, 4000), 5))
	sameValues(t, "oversize-only Visit", got, []Item{big})
}

// TestHashGridHugeRects: rectangles wider than an int64 count of 250 m cells
// must neither make Insert loop without end nor get missed. Visit answers
// like a brute-force scan and the estimate stays within [1, Len] for
// windows the huge rectangle intersects.
func TestHashGridHugeRects(t *testing.T) {
	const huge = 657530941875
	f := &itemForest{}
	brute := &bruteForce{}
	rng := rand.New(rand.NewSource(9))
	items := append(randomItems(rng, 200, 0.2), Item{Rect: geo.RectAround(geo.Pt(0, 0), huge), Value: -1})
	items = append(items, randomItems(rng, forestBuffer, 0.2)...)
	for i := range items[201:] {
		items[201+i].Value = 201 + i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, it := range items {
			f.Insert(it.Rect)
			f.items = append(f.items, it)
			brute.items = append(brute.items, it)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("inserting a huge rectangle did not return within 5s")
	}
	if f.built <= 200 {
		t.Fatalf("huge rect should be packed into a tree, built=%d", f.built)
	}
	checkForestShape(t, &f.Forest)
	for _, r := range []geo.Rect{
		geo.RectAround(geo.Pt(0, 0), huge),
		geo.RectAround(geo.Pt(1000, 1000), 100),
		geo.NewRect(geo.Pt(-1e300, -1e300), geo.Pt(1e300, 1e300)),
	} {
		sameValues(t, "huge Visit", forestWithin(f, r), Within(brute, r))
		if est := f.EstimateWithin(r); est <= 0 || est > f.Len() {
			t.Fatalf("estimate over %v = %d (n=%d)", r, est, f.Len())
		}
	}
}

// TestForestEmptyAndEstimate covers the zero value and the planner
// estimate's use: over the data's full bounds it counts every rectangle,
// and a small window costs a small estimate.
func TestForestEmptyAndEstimate(t *testing.T) {
	var f Forest
	if f.Len() != 0 || f.Footprint() != 0 {
		t.Fatalf("zero forest: Len %d, Footprint %d", f.Len(), f.Footprint())
	}
	if got := forestHits(&f, geo.RectAround(geo.Pt(0, 0), 100), 0); len(got) != 0 {
		t.Fatalf("empty Visit = %v", got)
	}
	if est := f.EstimateWithin(geo.RectAround(geo.Pt(0, 0), 10)); est != 0 {
		t.Fatalf("empty estimate = %d", est)
	}
	rng := rand.New(rand.NewSource(5))
	brute := &bruteForce{items: randomItems(rng, 1000, 0.1)}
	for _, it := range brute.items {
		f.Insert(it.Rect)
	}
	checkForestShape(t, &f)
	if all := f.EstimateWithin(brute.Bounds()); all != f.Len() {
		t.Fatalf("estimate over full bounds = %d, want %d", all, f.Len())
	}
	window := geo.RectAround(geo.Pt(1000, 1000), 30)
	if small, hits := f.EstimateWithin(window), len(Within(brute, window)); small < hits || small > f.Len()/10 {
		t.Fatalf("small-window estimate = %d for %d hits of %d", small, hits, f.Len())
	}
	if f.Footprint() < f.Len()*36 {
		t.Fatalf("footprint %d B under a rectangle and an id per item", f.Footprint())
	}
}
