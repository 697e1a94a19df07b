package spatial

import (
	"math/rand"
	"testing"
	"time"

	"semitri/internal/geo"
)

// TestHashGridMatchesBruteForce extends the quick-check property test to the
// incremental index: after every few insertions the hash grid must answer
// range, radius, covering and nearest queries exactly like a brute-force
// scan over the items inserted so far.
func TestHashGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	for round := 0; round < 12; round++ {
		rectFraction := 0.0
		if round%2 == 1 {
			rectFraction = 0.3
		}
		items := randomItems(rng, 1+rng.Intn(300), rectFraction)
		cell := 30 + rng.Float64()*400
		hg := NewHashGrid(cell)
		brute := &bruteForce{}
		for i, it := range items {
			hg.Insert(it)
			brute.items = append(brute.items, it)
			if i%17 != 0 && i != len(items)-1 {
				continue // query at a sample of prefixes, not all of them
			}
			if hg.Len() != len(brute.items) {
				t.Fatalf("Len = %d want %d", hg.Len(), len(brute.items))
			}
			for q := 0; q < 6; q++ {
				center := geo.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
				radius := rng.Float64() * 300

				rect := geo.RectAround(center, radius)
				sameValues(t, "hashgrid Within", Within(hg, rect), Within(brute, rect))
				sameValues(t, "hashgrid WithinDistance",
					WithinDistance(hg, center, radius), WithinDistance(brute, center, radius))
				sameValues(t, "hashgrid Covering", Covering(hg, center), Covering(brute, center))

				k := 1 + rng.Intn(12)
				got := KNearest(hg, center, k)
				want := KNearest(brute, center, k)
				if len(got) != len(want) {
					t.Fatalf("hashgrid KNearest: %d items want %d", len(got), len(want))
				}
				for i := range got {
					gd := got[i].Rect.DistanceToPoint(center)
					wd := want[i].Rect.DistanceToPoint(center)
					if gd != wd {
						t.Fatalf("hashgrid KNearest[%d]: dist %v want %v", i, gd, wd)
					}
				}
			}
		}
	}
}

// TestHashGridOversize forces items across the replication budget (huge
// rectangles over a tiny cell size) into the overflow list and checks they
// are still reported exactly once.
func TestHashGridOversize(t *testing.T) {
	hg := NewHashGrid(10)
	big := Item{Rect: geo.NewRect(geo.Pt(0, 0), geo.Pt(5000, 5000)), Value: 0}
	hg.Insert(big)
	hg.Insert(pointItem(100, 100, 1))
	if len(hg.oversize) != 1 {
		t.Fatalf("big rect should overflow, oversize=%d", len(hg.oversize))
	}
	got := Within(hg, geo.RectAround(geo.Pt(100, 100), 5))
	sameValues(t, "oversize Within", got, []Item{big, pointItem(100, 100, 1)})
	near := KNearest(hg, geo.Pt(-50, 100), 2)
	if len(near) != 2 || near[0].Value.(int) != 0 {
		t.Fatalf("oversize KNearest = %v", near)
	}
}

// TestHashGridHugeRects: rectangles spanning more buckets than an int64
// product can count must neither wrap into a bucket walk that never ends nor
// miss items. Insert sends such an item to the overflow list, Visit answers
// like a brute-force scan and the estimate stays within [0, Len].
func TestHashGridHugeRects(t *testing.T) {
	const huge = 657530941875
	hg := NewHashGrid(250)
	brute := &bruteForce{}
	rng := rand.New(rand.NewSource(9))
	items := append(randomItems(rng, 200, 0.2), Item{Rect: geo.RectAround(geo.Pt(0, 0), huge), Value: -1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, it := range items {
			hg.Insert(it)
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
		sameValues(t, "huge Within", Within(hg, r), Within(brute, r))
		if est := hg.EstimateWithin(r); est <= 0 || est > hg.Len() {
			t.Fatalf("estimate over %v = %d (n=%d)", r, est, hg.Len())
		}
	}
}

// TestHashGridEmptyAndEstimate covers the zero-value paths and the planner
// estimate's bounds.
func TestHashGridEmptyAndEstimate(t *testing.T) {
	hg := NewHashGrid(0) // falls back to the default cell size
	if hg.CellSize() <= 0 {
		t.Fatal("default cell size")
	}
	if !hg.Bounds().IsEmpty() || hg.Len() != 0 {
		t.Fatal("empty grid should have empty bounds")
	}
	if got := Within(hg, geo.RectAround(geo.Pt(0, 0), 100)); len(got) != 0 {
		t.Fatalf("empty Within = %v", got)
	}
	if got := KNearest(hg, geo.Pt(0, 0), 3); len(got) != 0 {
		t.Fatalf("empty KNearest = %v", got)
	}
	if est := hg.EstimateWithin(geo.RectAround(geo.Pt(0, 0), 10)); est != 0 {
		t.Fatalf("empty estimate = %d", est)
	}
	rng := rand.New(rand.NewSource(5))
	for _, it := range randomItems(rng, 500, 0.1) {
		hg.Insert(it)
	}
	all := hg.EstimateWithin(hg.Bounds())
	if all <= 0 || all > hg.Len() {
		t.Fatalf("estimate over full bounds = %d (n=%d)", all, hg.Len())
	}
	small := hg.EstimateWithin(geo.RectAround(geo.Pt(1000, 1000), 30))
	if small <= 0 || small > all {
		t.Fatalf("small-window estimate = %d (all=%d)", small, all)
	}
}
