package spatial

import (
	"math/rand"
	"testing"
	"time"

	"semitri/internal/geo"
)

// itemGrid pairs a HashGrid with the items its numbers stand for, the way
// the query engine keeps a parallel slice of postings.
type itemGrid struct {
	*HashGrid
	items []Item
}

func newItemGrid(cellSize float64) *itemGrid { return &itemGrid{HashGrid: NewHashGrid(cellSize)} }

// insert adds it, checking that the grid numbers items densely.
func (g *itemGrid) insert(t *testing.T, it Item) {
	t.Helper()
	if id := g.Insert(it.Rect); int(id) != len(g.items) {
		t.Fatalf("Insert numbered item %d, want %d", id, len(g.items))
	}
	g.items = append(g.items, it)
}

// gridWithin collects the items of what g.Visit reports for r.
func gridWithin(g *itemGrid, r geo.Rect) []Item {
	var out []Item
	g.Visit(r, func(id int32) bool {
		out = append(out, g.items[id])
		return true
	})
	return out
}

// TestHashGridMatchesBruteForce extends the quick-check property test to the
// incremental index: after every few insertions the hash grid must answer
// range and point queries exactly like a brute-force scan over the items
// inserted so far, and its estimate must stay within [0, Len].
func TestHashGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	for round := 0; round < 12; round++ {
		rectFraction := 0.0
		if round%2 == 1 {
			rectFraction = 0.3
		}
		items := randomItems(rng, 1+rng.Intn(300), rectFraction)
		cell := 30 + rng.Float64()*400
		hg := newItemGrid(cell)
		brute := &bruteForce{}
		for i, it := range items {
			hg.insert(t, it)
			brute.items = append(brute.items, it)
			if i%17 != 0 && i != len(items)-1 {
				continue // query at a sample of prefixes, not all of them
			}
			if hg.Len() != len(brute.items) {
				t.Fatalf("Len = %d want %d", hg.Len(), len(brute.items))
			}
			for q := 0; q < 6; q++ {
				center := geo.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
				rect := geo.RectAround(center, rng.Float64()*300)
				sameValues(t, "hashgrid Visit", gridWithin(hg, rect), Within(brute, rect))
				point := geo.Rect{Min: center, Max: center}
				sameValues(t, "hashgrid point Visit", gridWithin(hg, point), Covering(brute, center))
				if est := hg.EstimateWithin(rect); est < 0 || est > hg.Len() {
					t.Fatalf("estimate over %v = %d (n=%d)", rect, est, hg.Len())
				}
			}
		}
	}
}

// TestHashGridOversize forces items across the replication budget (huge
// rectangles over a tiny cell size) into the overflow list and checks they
// are still reported exactly once.
func TestHashGridOversize(t *testing.T) {
	hg := newItemGrid(10)
	big := Item{Rect: geo.NewRect(geo.Pt(0, 0), geo.Pt(5000, 5000)), Value: 0}
	hg.insert(t, big)
	hg.insert(t, pointItem(100, 100, 1))
	if len(hg.oversize) != 1 {
		t.Fatalf("big rect should overflow, oversize=%d", len(hg.oversize))
	}
	got := gridWithin(hg, geo.RectAround(geo.Pt(100, 100), 5))
	sameValues(t, "oversize Visit", got, []Item{big, pointItem(100, 100, 1)})
	got = gridWithin(hg, geo.RectAround(geo.Pt(4000, 4000), 5))
	sameValues(t, "oversize-only Visit", got, []Item{big})
}

// TestHashGridHugeRects: rectangles spanning more buckets than an int64
// product can count must neither wrap into a bucket walk that never ends nor
// miss items. Insert sends such an item to the overflow list, Visit answers
// like a brute-force scan and the estimate stays within [0, Len].
func TestHashGridHugeRects(t *testing.T) {
	const huge = 657530941875
	hg := newItemGrid(250)
	brute := &bruteForce{}
	rng := rand.New(rand.NewSource(9))
	items := append(randomItems(rng, 200, 0.2), Item{Rect: geo.RectAround(geo.Pt(0, 0), huge), Value: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, it := range items {
			hg.Insert(it.Rect)
			hg.items = append(hg.items, it)
			brute.items = append(brute.items, it)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("inserting a huge rectangle did not return within 5s")
	}
	if len(hg.oversize) != 1 {
		t.Fatalf("huge rect should overflow, oversize=%d", len(hg.oversize))
	}
	for _, r := range []geo.Rect{
		geo.RectAround(geo.Pt(0, 0), huge),
		geo.RectAround(geo.Pt(1000, 1000), 100),
		geo.NewRect(geo.Pt(-1e300, -1e300), geo.Pt(1e300, 1e300)),
	} {
		sameValues(t, "huge Visit", gridWithin(hg, r), Within(brute, r))
		if est := hg.EstimateWithin(r); est <= 0 || est > hg.Len() {
			t.Fatalf("estimate over %v = %d (n=%d)", r, est, hg.Len())
		}
	}
}

// TestHashGridEmptyAndEstimate covers the zero-value paths and the planner
// estimate's bounds.
func TestHashGridEmptyAndEstimate(t *testing.T) {
	hg := newItemGrid(0) // falls back to the default cell size
	if hg.cellSize != 250 || hg.Len() != 0 {
		t.Fatalf("empty grid: cell size %v, Len %d", hg.cellSize, hg.Len())
	}
	if got := gridWithin(hg, geo.RectAround(geo.Pt(0, 0), 100)); len(got) != 0 {
		t.Fatalf("empty Visit = %v", got)
	}
	if est := hg.EstimateWithin(geo.RectAround(geo.Pt(0, 0), 10)); est != 0 {
		t.Fatalf("empty estimate = %d", est)
	}
	rng := rand.New(rand.NewSource(5))
	brute := &bruteForce{items: randomItems(rng, 500, 0.1)}
	for _, it := range brute.items {
		hg.insert(t, it)
	}
	all := hg.EstimateWithin(brute.Bounds())
	if all <= 0 || all > hg.Len() {
		t.Fatalf("estimate over full bounds = %d (n=%d)", all, hg.Len())
	}
	small := hg.EstimateWithin(geo.RectAround(geo.Pt(1000, 1000), 30))
	if small <= 0 || small > all {
		t.Fatalf("small-window estimate = %d (all=%d)", small, all)
	}
}
