package spatial

import (
	"math"
	"testing"
	"testing/quick"

	"semitri/internal/geo"
)

func mustGrid(t *testing.T, extent geo.Rect, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(extent, cell)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), 0); err == nil {
		t.Fatal("expected error for zero cell size")
	}
	if _, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), -5); err == nil {
		t.Fatal("expected error for negative cell size")
	}
	if _, err := NewGrid(geo.EmptyRect(), 10); err == nil {
		t.Fatal("expected error for empty extent")
	}
}

func TestGridDimensions(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 500)), 100)
	if g.Cols != 10 || g.Rows != 5 {
		t.Fatalf("cols/rows = %d/%d", g.Cols, g.Rows)
	}
	if g.NumCells() != 50 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	b := g.Bounds()
	if b.Min != geo.Pt(0, 0) || b.Max != geo.Pt(1000, 500) {
		t.Fatalf("Bounds = %+v", b)
	}
	// Non-integer extent expands upward.
	g2 := mustGrid(t, geo.NewRect(geo.Pt(0, 0), geo.Pt(250, 90)), 100)
	if g2.Cols != 3 || g2.Rows != 1 {
		t.Fatalf("expanded cols/rows = %d/%d", g2.Cols, g2.Rows)
	}
}

func TestCellIndexAndRect(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	col, row, ok := g.CellIndex(geo.Pt(250, 730))
	if !ok || col != 2 || row != 7 {
		t.Fatalf("CellIndex = %d,%d,%v", col, row, ok)
	}
	if _, _, ok := g.CellIndex(geo.Pt(-1, 50)); ok {
		t.Fatal("point outside grid should not be ok")
	}
	if _, _, ok := g.CellIndex(geo.Pt(50, 1001)); ok {
		t.Fatal("point outside grid should not be ok")
	}
	// Max-edge points map to last cell.
	col, row, ok = g.CellIndex(geo.Pt(1000, 1000))
	if !ok || col != 9 || row != 9 {
		t.Fatalf("max edge CellIndex = %d,%d,%v", col, row, ok)
	}
	r := g.CellRect(2, 7)
	if r.Min != geo.Pt(200, 700) || r.Max != geo.Pt(300, 800) {
		t.Fatalf("CellRect = %+v", r)
	}
	if c := g.CellCenter(0, 0); c != geo.Pt(50, 50) {
		t.Fatalf("CellCenter = %v", c)
	}
	id := g.CellAt(geo.Pt(250, 730))
	if id != g.CellID(2, 7) {
		t.Fatalf("CellAt = %d want %d", id, g.CellID(2, 7))
	}
	if g.CellAt(geo.Pt(-5, -5)) != -1 {
		t.Fatal("outside point should return -1")
	}
	if rr := g.CellRectByID(id); rr != r {
		t.Fatalf("CellRectByID = %+v want %+v", rr, r)
	}
}

// Property: every point inside the bounds maps to exactly one cell whose
// rect contains the point.
func TestCellContainsItsPoints(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Pt(-500, -500), geo.Pt(500, 500)), 37)
	f := func(x, y float64) bool {
		p := geo.Pt(-500+mod(x, 1000), -500+mod(y, 1000))
		col, row, ok := g.CellIndex(p)
		if !ok {
			return false
		}
		return g.CellRect(col, row).ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mod(v, m float64) float64 {
	r := math.Mod(v, m)
	if r < 0 {
		r += m
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

func TestCellsIntersecting(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 100)
	ids := g.CellsIntersecting(geo.NewRect(geo.Pt(150, 150), geo.Pt(350, 250)))
	// covers cols 1..3, rows 1..2 -> 3*2=6 cells
	if len(ids) != 6 {
		t.Fatalf("CellsIntersecting = %d cells, want 6", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("CellsIntersecting must be in ascending id order")
		}
	}
	if got := g.CellsIntersecting(geo.NewRect(geo.Pt(2000, 2000), geo.Pt(3000, 3000))); got != nil {
		t.Fatalf("disjoint rect should yield nil, got %v", got)
	}
	if got := g.CellsIntersecting(geo.EmptyRect()); got != nil {
		t.Fatal("empty rect should yield nil")
	}
	// Rect larger than grid should return all cells.
	all := g.CellsIntersecting(geo.NewRect(geo.Pt(-10000, -10000), geo.Pt(10000, 10000)))
	if len(all) != g.NumCells() {
		t.Fatalf("oversized rect = %d cells want %d", len(all), g.NumCells())
	}
}

func pointItem(x, y float64, v any) Item {
	p := geo.Pt(x, y)
	return Item{Rect: geo.Rect{Min: p, Max: p}, Value: v}
}
