package spatial

import (
	"math/rand"
	"testing"

	"semitri/internal/geo"
)

func TestSTRTreeEmptyAndSingle(t *testing.T) {
	empty := NewSTRTree(nil)
	if empty.Len() != 0 || height(empty) != 1 {
		t.Fatalf("empty tree Len=%d height=%d", empty.Len(), height(empty))
	}
	if got := Within(empty, geo.NewRect(geo.Pt(-1e9, -1e9), geo.Pt(1e9, 1e9))); got != nil {
		t.Fatalf("empty Within = %v", got)
	}
	if _, _, ok := Nearest(empty, geo.Pt(0, 0)); ok {
		t.Fatal("Nearest on empty tree should be !ok")
	}

	one := NewSTRTree([]Item{pointItem(3, 4, "only")})
	if one.Len() != 1 {
		t.Fatalf("Len = %d", one.Len())
	}
	it, d, ok := Nearest(one, geo.Pt(0, 0))
	if !ok || it.Value.(string) != "only" || d != 5 {
		t.Fatalf("Nearest = %v, %v, %v", it, d, ok)
	}
	if got := Covering(one, geo.Pt(3, 4)); len(got) != 1 {
		t.Fatalf("Covering = %v", got)
	}
}

// height returns the number of tree levels (1 for a single-leaf tree).
func height(t *STRTree) int { return len(t.tree.levels) }

func TestSTRTreePacksShallow(t *testing.T) {
	var items []Item
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4096; i++ {
		items = append(items, pointItem(rng.Float64()*1e4, rng.Float64()*1e4, i))
	}
	tr := NewSTRTree(items)
	if tr.Len() != 4096 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// 4096 items at fanout 16 pack into exactly 3 levels (16^3).
	if h := height(tr); h != 3 {
		t.Fatalf("height = %d, want 3 for a packed tree", h)
	}
	if tr.Bounds().IsEmpty() {
		t.Fatal("Bounds should not be empty")
	}
}

func TestSTRTreeRangeAndNearestVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var items []Item
	for i := 0; i < 700; i++ {
		// Mix of points and small rects.
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if i%3 == 0 {
			items = append(items, Item{
				Rect:  geo.NewRect(geo.Pt(x, y), geo.Pt(x+rng.Float64()*40, y+rng.Float64()*40)),
				Value: i,
			})
		} else {
			items = append(items, pointItem(x, y, i))
		}
	}
	tr := NewSTRTree(items)
	for trial := 0; trial < 60; trial++ {
		q := geo.RectAround(geo.Pt(rng.Float64()*1000, rng.Float64()*1000), rng.Float64()*80)
		got := map[int]bool{}
		for _, it := range Within(tr, q) {
			got[it.Value.(int)] = true
		}
		want := map[int]bool{}
		for _, it := range items {
			if it.Rect.Intersects(q) {
				want[it.Value.(int)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within(%+v): got %d items want %d", q, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("Within missing item %d", v)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		p := geo.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
		it, d, ok := Nearest(tr, p)
		if !ok {
			t.Fatal("Nearest should find something")
		}
		best := -1.0
		for _, cand := range items {
			dd := cand.Rect.DistanceToPoint(p)
			if best < 0 || dd < best {
				best = dd
			}
		}
		if d != best {
			t.Fatalf("Nearest dist = %v want %v (item %v)", d, best, it.Value)
		}
	}
}

func TestVisitNearestOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var items []Item
	for i := 0; i < 300; i++ {
		items = append(items, pointItem(rng.Float64()*500, rng.Float64()*500, i))
	}
	tr := NewSTRTree(items)
	p := geo.Pt(250, 250)
	last := -1.0
	n := 0
	tr.VisitNearest(p, func(it Item, d float64) bool {
		if d < last {
			t.Fatalf("VisitNearest out of order: %v after %v", d, last)
		}
		last = d
		n++
		return true
	})
	if n != len(items) {
		t.Fatalf("VisitNearest visited %d of %d", n, len(items))
	}
}
