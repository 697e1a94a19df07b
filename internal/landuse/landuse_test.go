package landuse

import (
	"slices"
	"testing"

	"semitri/internal/geo"
)

// shareOf returns the fraction of the map's cells classified as c.
func shareOf(m *Map, c Category) float64 {
	n := 0
	for _, cc := range m.cells {
		if cc == c {
			n++
		}
	}
	return float64(n) / float64(len(m.cells))
}

func TestCategoryOntology(t *testing.T) {
	if len(AllCategories) != 17 {
		t.Fatalf("ontology has %d sub-categories, want 17", len(AllCategories))
	}
	seen := map[Category]bool{}
	for _, c := range AllCategories {
		if seen[c] {
			t.Fatalf("duplicate category %s", c)
		}
		seen[c] = true
		if !c.Valid() {
			t.Fatalf("category %s should be valid", c)
		}
		if c.Label() == string(c) {
			t.Fatalf("category %s has no label", c)
		}
		if c.TopLevel() == "" {
			t.Fatalf("category %s has no top level", c)
		}
	}
	if Category("9.99").Valid() {
		t.Fatal("unknown category should be invalid")
	}
	if Category("").TopLevel() != "" {
		t.Fatal("empty category top level should be empty")
	}
	if Building.TopLevel() != "L1 settlement and urban" {
		t.Fatalf("Building top level = %q", Building.TopLevel())
	}
	if Lakes.TopLevel() != "L4 unproductive" {
		t.Fatalf("Lakes top level = %q", Lakes.TopLevel())
	}
	if Category("5.1").TopLevel() != "" {
		t.Fatal("out-of-ontology prefix should have empty top level")
	}
	if Category("9.99").Label() != "9.99" {
		t.Fatal("unknown label should echo the code")
	}
}

func TestNewMapAndClassification(t *testing.T) {
	m, err := NewMap(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 100 {
		t.Fatalf("NumCells = %d", m.NumCells())
	}
	if m.Grid() == nil {
		t.Fatal("Grid accessor nil")
	}
	// Default category.
	c, ok := m.CellAt(geo.Pt(50, 50))
	if !ok || c.Category != Meadows {
		t.Fatalf("default category = %v,%v", c.Category, ok)
	}
	if !m.SetCategory(geo.Pt(50, 50), Building) {
		t.Fatal("SetCategory inside extent should succeed")
	}
	if m.SetCategory(geo.Pt(-10, 0), Building) {
		t.Fatal("SetCategory outside extent should fail")
	}
	if m.SetCategory(geo.Pt(50, 50), Category("bogus")) {
		t.Fatal("invalid category should fail")
	}
	c, _ = m.CellAt(geo.Pt(50, 50))
	if c.Category != Building {
		t.Fatalf("category after set = %v", c.Category)
	}
	if _, ok := m.CellAt(geo.Pt(5000, 5000)); ok {
		t.Fatal("outside point should not be ok")
	}
	cell, ok := m.CellAt(geo.Pt(50, 50))
	if !ok || cell.Category != Building || !cell.Extent.ContainsPoint(geo.Pt(50, 50)) {
		t.Fatalf("CellAt = %+v, %v", cell, ok)
	}
	if _, ok := m.CellAt(geo.Pt(-1, -1)); ok {
		t.Fatal("outside CellAt should not be ok")
	}
}

func TestSetCategoryRectAndIntersecting(t *testing.T) {
	m, err := NewMap(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	if err != nil {
		t.Fatal(err)
	}
	n := m.SetCategoryRect(geo.NewRect(geo.Pt(0, 0), geo.Pt(250, 250)), Transportation)
	if n != 9 {
		t.Fatalf("SetCategoryRect updated %d cells, want 9", n)
	}
	if m.SetCategoryRect(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), Category("zzz")) != 0 {
		t.Fatal("invalid category should update nothing")
	}
	cells := m.CellsIntersecting(geo.NewRect(geo.Pt(0, 0), geo.Pt(150, 150)))
	if len(cells) != 4 {
		t.Fatalf("CellsIntersecting = %d cells", len(cells))
	}
	for _, c := range cells {
		if c.Category != Transportation {
			t.Fatalf("cell %d category = %v", c.ID, c.Category)
		}
	}
	if got := shareOf(m, Transportation); got != 9.0/100.0 {
		t.Fatalf("Transportation share = %v", got)
	}
	if got := shareOf(m, Meadows); got != 91.0/100.0 {
		t.Fatalf("Meadows share = %v", got)
	}
}

// TestVisitCells: VisitCells yields exactly CellsIntersecting, in the same
// ascending-id order, and stops when fn returns false.
func TestVisitCells(t *testing.T) {
	m, err := Generate(DefaultGeneratorConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geo.Rect{
		geo.NewRect(geo.Pt(4120, 7333), geo.Pt(4890, 7410)),
		geo.NewRect(geo.Pt(-500, -500), geo.Pt(250, 120)), // clipped at the extent
		geo.NewRect(geo.Pt(9950, 9950), geo.Pt(9950, 9950)),
		geo.NewRect(geo.Pt(-900, -900), geo.Pt(-800, -800)), // outside
	} {
		var got []Cell
		m.VisitCells(r, func(c Cell) bool {
			got = append(got, c)
			return true
		})
		if want := m.CellsIntersecting(r); !slices.Equal(got, want) {
			t.Fatalf("VisitCells(%v) = %d cells, CellsIntersecting %d", r, len(got), len(want))
		}
	}
	r := geo.NewRect(geo.Pt(1000, 1000), geo.Pt(1500, 1500))
	var first []Cell
	m.VisitCells(r, func(c Cell) bool {
		first = append(first, c)
		return len(first) < 3
	})
	if want := m.CellsIntersecting(r)[:3]; !slices.Equal(first, want) {
		t.Fatalf("early stop visited %v, want %v", first, want)
	}
}

func TestNamedRegions(t *testing.T) {
	m, err := NewMap(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	if err != nil {
		t.Fatal(err)
	}
	campus := NamedRegion{Name: "campus", Kind: "campus",
		Polygon: geo.Polygon{geo.Pt(100, 100), geo.Pt(300, 100), geo.Pt(300, 300), geo.Pt(100, 300)}}
	m.AddNamedRegion(campus)
	if len(m.NamedRegions()) != 1 {
		t.Fatal("NamedRegions should have 1 entry")
	}
	at := m.NamedRegionsAt(geo.Pt(200, 200))
	if len(at) != 1 || at[0].Name != "campus" {
		t.Fatalf("NamedRegionsAt = %+v", at)
	}
	if got := m.NamedRegionsAt(geo.Pt(900, 900)); len(got) != 0 {
		t.Fatal("point outside should match no region")
	}
	hit := m.NamedRegionsIntersecting(geo.NewRect(geo.Pt(250, 250), geo.Pt(500, 500)))
	if len(hit) != 1 {
		t.Fatalf("NamedRegionsIntersecting = %+v", hit)
	}
	miss := m.NamedRegionsIntersecting(geo.NewRect(geo.Pt(800, 800), geo.Pt(900, 900)))
	if len(miss) != 0 {
		t.Fatal("disjoint rect should match no region")
	}
}

func TestNewMapErrors(t *testing.T) {
	if _, err := NewMap(geo.EmptyRect(), 100); err == nil {
		t.Fatal("empty extent should error")
	}
	if _, err := NewMap(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), 0); err == nil {
		t.Fatal("zero cell size should error")
	}
}

func TestGenerateCityStructure(t *testing.T) {
	cfg := DefaultGeneratorConfig(42)
	m, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 200*200 {
		t.Fatalf("NumCells = %d", m.NumCells())
	}
	// Lake strip exists.
	if lake := shareOf(m, Lakes); lake < 0.05 {
		t.Fatalf("lake share = %v, want >= 5%%", lake)
	}
	// Urban classes present but not dominant across the whole extent.
	urban := shareOf(m, Building) + shareOf(m, Transportation) + shareOf(m, IndustrialCommercial)
	if urban < 0.1 || urban > 0.6 {
		t.Fatalf("urban share = %v", urban)
	}
	// The urban core must be dominated by settlement classes.
	center := cfg.Extent.Center()
	coreCells := m.CellsIntersecting(geo.RectAround(center, 2000))
	var settlement int
	for _, c := range coreCells {
		if c.Category.TopLevel() == "L1 settlement and urban" {
			settlement++
		}
	}
	if frac := float64(settlement) / float64(len(coreCells)); frac < 0.9 {
		t.Fatalf("urban core settlement fraction = %v", frac)
	}
	// Named regions generated.
	if len(m.NamedRegions()) != 3 {
		t.Fatalf("named regions = %d", len(m.NamedRegions()))
	}
	// Determinism: same seed, same classification.
	m2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.cells {
		if m.cells[i] != m2.cells[i] {
			t.Fatalf("generation not deterministic at cell %d", i)
		}
	}
	// Different seed should differ somewhere.
	cfg3 := cfg
	cfg3.Seed = 43
	m3, err := Generate(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range m.cells {
		if m.cells[i] != m3.cells[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical maps")
	}
}

func TestGenerateWithoutLake(t *testing.T) {
	cfg := DefaultGeneratorConfig(1)
	cfg.LakeFraction = 0
	cfg.Extent = geo.NewRect(geo.Pt(0, 0), geo.Pt(5000, 5000))
	cfg.UrbanCoreRadius = 1500
	m, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := shareOf(m, Lakes); got != 0 {
		t.Fatalf("lake share should be 0, got %v", got)
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultGeneratorConfig(1)
	cfg.CellSize = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("invalid cell size should error")
	}
}
