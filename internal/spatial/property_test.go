package spatial

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"semitri/internal/geo"
)

// bruteForce is the reference implementation every real index is compared
// against in the quick-check style property tests below.
type bruteForce struct{ items []Item }

func (b *bruteForce) Len() int { return len(b.items) }
func (b *bruteForce) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, it := range b.items {
		r = r.Union(it.Rect)
	}
	return r
}
func (b *bruteForce) Visit(r geo.Rect, fn func(Item) bool) {
	for _, it := range b.items {
		if it.Rect.Intersects(r) && !fn(it) {
			return
		}
	}
}
func (b *bruteForce) VisitNearest(p geo.Point, fn func(Item, float64) bool) {
	order := append([]Item(nil), b.items...)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].Rect.DistanceToPoint(p) < order[j].Rect.DistanceToPoint(p)
	})
	for _, it := range order {
		if !fn(it, it.Rect.DistanceToPoint(p)) {
			return
		}
	}
}

// randomItems generates a mixed geometry set: points with a fraction of
// extended rectangles.
func randomItems(rng *rand.Rand, n int, rectFraction float64) []Item {
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		if rng.Float64() < rectFraction {
			items = append(items, Item{
				Rect:  geo.NewRect(geo.Pt(x, y), geo.Pt(x+rng.Float64()*120, y+rng.Float64()*120)),
				Value: i,
			})
		} else {
			items = append(items, pointItem(x, y, i))
		}
	}
	return items
}

func valueSet(items []Item) map[int]bool {
	out := make(map[int]bool, len(items))
	for _, it := range items {
		out[it.Value.(int)] = true
	}
	return out
}

func sameValues(t *testing.T, label string, got, want []Item) {
	t.Helper()
	gs, ws := valueSet(got), valueSet(want)
	if len(gs) != len(got) {
		t.Fatalf("%s: result contains duplicates (%d items, %d distinct)", label, len(got), len(gs))
	}
	if len(gs) != len(ws) {
		t.Fatalf("%s: got %d items, want %d", label, len(gs), len(ws))
	}
	for v := range ws {
		if !gs[v] {
			t.Fatalf("%s: missing item %d", label, v)
		}
	}
}

// TestIndexImplementationsAgree is the quick-check property test of the
// spatial layer: on random geometry, the STR tree must return exactly the
// candidate sets a brute-force scan returns, for range, radius, covering and
// nearest queries.
func TestIndexImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for round := 0; round < 25; round++ {
		n := 1 + rng.Intn(400)
		rectFraction := 0.0
		if round%2 == 1 {
			rectFraction = 0.3
		}
		items := randomItems(rng, n, rectFraction)
		brute := &bruteForce{items: items}
		ix := NewSTRTree(items)
		if ix.Len() != len(items) {
			t.Fatalf("Len = %d want %d", ix.Len(), len(items))
		}
		if ix.Bounds() != brute.Bounds() {
			t.Fatalf("Bounds = %+v want %+v", ix.Bounds(), brute.Bounds())
		}
		for q := 0; q < 8; q++ {
			center := geo.Pt(rng.Float64()*2400-200, rng.Float64()*2400-200)
			radius := rng.Float64() * 300

			rect := geo.RectAround(center, radius)
			sameValues(t, "Within", Within(ix, rect), Within(brute, rect))
			sameValues(t, "WithinDistance",
				WithinDistance(ix, center, radius), WithinDistance(brute, center, radius))
			sameValues(t, "Covering", Covering(ix, center), Covering(brute, center))

			// Nearest-first order: the first k distances must match the
			// brute-force prefix (item identity may differ on exact ties).
			k := 1 + rng.Intn(12)
			got, want := nearestDists(ix, center, k), nearestDists(brute, center, k)
			if !slices.Equal(got, want) {
				t.Fatalf("VisitNearest prefix: %v want %v", got, want)
			}

			// NearestBy with a refined metric (distance to the rect
			// centre, strictly larger than the rect distance).
			refine := func(it Item) float64 { return it.Rect.Center().DistanceTo(center) }
			_, gd, gok := NearestBy(ix, center, refine)
			_, wd, wok := NearestBy(brute, center, refine)
			if gok != wok || (gok && gd != wd) {
				t.Fatalf("NearestBy: (%v,%v) want (%v,%v)", gd, gok, wd, wok)
			}
		}
	}
}

// nearestDists returns the rectangle distances of the first k items
// VisitNearest reports.
func nearestDists(ix Index, p geo.Point, k int) []float64 {
	var out []float64
	ix.VisitNearest(p, func(_ Item, d float64) bool {
		out = append(out, d)
		return len(out) < k
	})
	return out
}

func TestCursorMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	items := randomItems(rng, 800, 0.1)
	ix := NewSTRTree(items)
	less := func(a, b Item) bool { return a.Value.(int) < b.Value.(int) }
	cur := NewCursorSorted(ix, less)
	// Random walk with small steps: mostly hits, occasionally teleporting.
	p := geo.Pt(1000, 1000)
	const radius = 80.0
	for i := 0; i < 500; i++ {
		if i%50 == 49 {
			p = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		} else {
			p = geo.Pt(p.X+rng.NormFloat64()*10, p.Y+rng.NormFloat64()*10)
		}
		got := cur.WithinDistance(p, radius)
		want := WithinDistance(ix, p, radius)
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		if len(got) != len(want) {
			t.Fatalf("step %d: cursor %d items, uncached %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].Value.(int) != want[j].Value.(int) {
				t.Fatalf("step %d item %d: cursor %v, uncached %v", i, j, got[j].Value, want[j].Value)
			}
		}
	}
	hits, misses := cur.Stats()
	if hits+misses != 500 {
		t.Fatalf("stats %d+%d != 500", hits, misses)
	}
	if hits == 0 {
		t.Fatal("a 10m-step walk should hit the cache")
	}
	// A changed radius always misses.
	cur2 := NewCursor(ix)
	cur2.WithinDistance(geo.Pt(100, 100), 50)
	cur2.WithinDistance(geo.Pt(100, 100), 60)
	if h, m := cur2.Stats(); h != 0 || m != 2 {
		t.Fatalf("radius change should miss: hits=%d misses=%d", h, m)
	}
	if cur2.Index() != Index(ix) {
		t.Fatal("Index accessor")
	}
}
