package poi

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"semitri/internal/geo"
	"semitri/internal/spatial"
)

// idsOf returns the ids of the POIs held by index items, ascending.
func idsOf(items []spatial.Item) []int {
	out := make([]int, 0, len(items))
	for _, it := range items {
		out = append(out, it.Value.(*POI).ID)
	}
	slices.Sort(out)
	return out
}

func TestCategoryBasics(t *testing.T) {
	if NumCategories != 5 || len(AllCategories) != 5 {
		t.Fatal("there must be exactly five categories")
	}
	names := []string{"services", "feedings", "item sale", "person life", "unknown"}
	for i, c := range AllCategories {
		if c.String() != names[i] {
			t.Fatalf("String(%d) = %q", i, c.String())
		}
		if !c.Valid() {
			t.Fatalf("category %v should be valid", c)
		}
	}
	if Category(9).Valid() || Category(-1).Valid() {
		t.Fatal("out-of-range categories should be invalid")
	}
	if !strings.HasPrefix(Category(9).String(), "category(") {
		t.Fatalf("unknown category string = %q", Category(9).String())
	}
}

func TestMilanShares(t *testing.T) {
	total := 0
	for _, n := range MilanCounts {
		total += n
	}
	if total != MilanTotal {
		t.Fatalf("Milan counts sum to %d, constant says %d", total, MilanTotal)
	}
	shares := MilanShares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Milan shares sum to %v", sum)
	}
	// Person life is the largest category, unknown the smallest (Fig. 5).
	if shares[PersonLife] <= shares[ItemSale] || shares[Unknown] >= shares[Services] {
		t.Fatalf("share ordering wrong: %v", shares)
	}
	if math.Abs(shares[Services]-4339.0/39772.0) > 1e-12 {
		t.Fatalf("services share = %v", shares[Services])
	}
}

func TestNewSetAndAdd(t *testing.T) {
	if _, err := NewSet(geo.EmptyRect(), 100); err == nil {
		t.Fatal("empty extent should error")
	}
	s, err := NewSet(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || len(s.All()) != 0 {
		t.Fatal("new set should be empty")
	}
	p, err := s.Add("cafe", Feedings, geo.Pt(100, 100))
	if err != nil || p.ID != 0 {
		t.Fatalf("Add = %+v, %v", p, err)
	}
	if _, err := s.Add("bad", Category(12), geo.Pt(10, 10)); err == nil {
		t.Fatal("invalid category should error")
	}
	if _, err := s.Add("outside", Services, geo.Pt(-10, 0)); err == nil {
		t.Fatal("outside position should error")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.ByCategory(Feedings); len(got) != 1 || got[0].Name != "cafe" {
		t.Fatalf("ByCategory = %+v", got)
	}
	if got := s.ByCategory(Services); len(got) != 0 {
		t.Fatal("Services should be empty")
	}
	if s.Grid() == nil {
		t.Fatal("Grid accessor nil")
	}
}

func TestCategorySharesEmptyAndPopulated(t *testing.T) {
	s, _ := NewSet(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 10)
	shares := s.CategoryShares()
	for _, v := range shares {
		if math.Abs(v-0.2) > 1e-12 {
			t.Fatalf("empty set shares should be uniform: %v", shares)
		}
	}
	s.Add("a", Services, geo.Pt(1, 1))
	s.Add("b", Services, geo.Pt(2, 2))
	s.Add("c", ItemSale, geo.Pt(3, 3))
	shares = s.CategoryShares()
	if math.Abs(shares[int(Services)]-2.0/3.0) > 1e-12 || math.Abs(shares[int(ItemSale)]-1.0/3.0) > 1e-12 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestSpatialQueries(t *testing.T) {
	s, _ := NewSet(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 50)
	s.Add("a", Services, geo.Pt(100, 100))
	s.Add("b", Feedings, geo.Pt(110, 100))
	s.Add("c", ItemSale, geo.Pt(500, 500))
	if got := idsOf(spatial.WithinDistance(s.Index(), geo.Pt(100, 100), 20)); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("WithinDistance = %v", got)
	}
	if got := idsOf(spatial.Within(s.Index(), geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)))); len(got) != 2 {
		t.Fatalf("Within = %v", got)
	}
	nearest, d, ok := s.Nearest(geo.Pt(480, 480))
	if !ok || nearest.Name != "c" || math.Abs(d-geo.Pt(480, 480).DistanceTo(geo.Pt(500, 500))) > 1e-9 {
		t.Fatalf("Nearest = %v, %v, %v", nearest, d, ok)
	}
	empty, _ := NewSet(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), 5)
	if _, _, ok := empty.Nearest(geo.Pt(1, 1)); ok {
		t.Fatal("nearest on empty set should be !ok")
	}
}

func TestGenerateMilanLike(t *testing.T) {
	cfg := DefaultGeneratorConfig(5000, 11)
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Category shares within 3 percentage points of the Milan shares.
	want := MilanShares()
	got := s.CategoryShares()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.03 {
			t.Fatalf("category %v share = %v, want about %v", Category(i), got[i], want[i])
		}
	}
	// Density profile: the core disc holds more POIs than an equal
	// periphery disc.
	core := len(spatial.WithinDistance(s.Index(), cfg.Extent.Center(), 500))
	periphery := len(spatial.WithinDistance(s.Index(), geo.Pt(500, 9500), 500))
	if core <= periphery {
		t.Fatalf("core holds %d POIs, periphery %d: core should be denser", core, periphery)
	}
	// All POIs inside the extent.
	for _, p := range s.All() {
		if !cfg.Extent.ContainsPoint(p.Position) {
			t.Fatalf("POI %d outside extent: %v", p.ID, p.Position)
		}
	}
	// Determinism.
	s2, _ := Generate(cfg)
	for i, p := range s.All() {
		q := s2.All()[i]
		if p.Category != q.Category || !p.Position.Equal(q.Position, 1e-12) {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestGenerateCustomSharesAndErrors(t *testing.T) {
	cfg := DefaultGeneratorConfig(1000, 3)
	cfg.Shares = []float64{1, 0, 0, 0, 0}
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CategoryShares(); got[int(Services)] != 1 {
		t.Fatalf("all-services shares = %v", got)
	}
	bad := cfg
	bad.Total = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero total should error")
	}
	bad = cfg
	bad.Shares = []float64{0.5, 0.5}
	if _, err := Generate(bad); err == nil {
		t.Fatal("wrong share vector length should error")
	}
	// Nil shares defaults to Milan; zero cell size defaults sensibly.
	okCfg := DefaultGeneratorConfig(200, 5)
	okCfg.Shares = nil
	okCfg.IndexCellSize = 0
	if _, err := Generate(okCfg); err != nil {
		t.Fatalf("defaulting config should work: %v", err)
	}
}

// TestSpatialQueriesMatchScan checks the indexed queries against a scan over
// All() on the benchmark city's POI set (city seed 1 draws its POIs with
// seed 3), from random points inside and around the extent.
func TestSpatialQueriesMatchScan(t *testing.T) {
	s, err := Generate(DefaultGeneratorConfig(5000, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p := geo.Pt(rng.Float64()*12000-1000, rng.Float64()*12000-1000)
		dist := rng.Float64() * 500
		rect := geo.RectAround(p, dist)
		var near, inRect []int
		bestD := math.Inf(1)
		for _, q := range s.All() { // ascending id order
			dx, dy := q.Position.X-p.X, q.Position.Y-p.Y
			if dx*dx+dy*dy <= dist*dist {
				near = append(near, q.ID)
			}
			if rect.ContainsPoint(q.Position) {
				inRect = append(inRect, q.ID)
			}
			bestD = math.Min(bestD, q.Position.DistanceTo(p))
		}
		if got := idsOf(spatial.WithinDistance(s.Index(), p, dist)); !slices.Equal(got, near) {
			t.Fatalf("WithinDistance(%v, %v): %d POIs, scan finds %d", p, dist, len(got), len(near))
		}
		if got := idsOf(spatial.Within(s.Index(), rect)); !slices.Equal(got, inRect) {
			t.Fatalf("Within(%v): %d POIs, scan finds %d", rect, len(got), len(inRect))
		}
		// Distances, not identities: equidistant POIs may tie.
		if got, d, ok := s.Nearest(p); !ok || d != bestD || got.Position.DistanceTo(p) != d {
			t.Fatalf("Nearest(%v) = %v at %v, scan finds %v", p, got, d, bestD)
		}
	}
}
