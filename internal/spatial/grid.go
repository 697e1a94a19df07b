package spatial

import (
	"fmt"
	"math"

	"semitri/internal/geo"
)

// Grid is a uniform partitioning of a rectangular extent into Cols x Rows
// equal square cells: the geometry of SeMiTri's raster sources — the
// 100m x 100m land-use cell model (Fig. 4) and the discretization of the POI
// emission probabilities (Figs. 7/8).
type Grid struct {
	Origin   geo.Point // lower-left corner of cell (0,0)
	CellSize float64   // side length of a square cell, in metres
	Cols     int
	Rows     int
}

// NewGrid creates a grid covering extent with square cells of the given
// size. The extent is expanded (never shrunk) so an integer number of cells
// covers it.
func NewGrid(extent geo.Rect, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %v", cellSize)
	}
	if extent.IsEmpty() {
		return nil, fmt.Errorf("spatial: empty grid extent")
	}
	cols := int(math.Ceil(extent.Width() / cellSize))
	rows := int(math.Ceil(extent.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{Origin: extent.Min, CellSize: cellSize, Cols: cols, Rows: rows}, nil
}

// NumCells returns the total number of cells in the grid.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// Bounds returns the full extent covered by the grid.
func (g *Grid) Bounds() geo.Rect {
	return geo.Rect{
		Min: g.Origin,
		Max: geo.Pt(g.Origin.X+float64(g.Cols)*g.CellSize, g.Origin.Y+float64(g.Rows)*g.CellSize),
	}
}

// CellIndex returns the (col, row) of the cell containing p and whether p is
// inside the grid extent. Points on the max edge map to the last cell.
func (g *Grid) CellIndex(p geo.Point) (col, row int, ok bool) {
	col = int(math.Floor((p.X - g.Origin.X) / g.CellSize))
	row = int(math.Floor((p.Y - g.Origin.Y) / g.CellSize))
	if p.X == g.Origin.X+float64(g.Cols)*g.CellSize {
		col = g.Cols - 1
	}
	if p.Y == g.Origin.Y+float64(g.Rows)*g.CellSize {
		row = g.Rows - 1
	}
	if col < 0 || col >= g.Cols || row < 0 || row >= g.Rows {
		return 0, 0, false
	}
	return col, row, true
}

// CellID returns a dense integer id for the cell (col, row).
func (g *Grid) CellID(col, row int) int { return row*g.Cols + col }

// CellAt returns the id of the cell containing p, or -1 when outside.
func (g *Grid) CellAt(p geo.Point) int {
	col, row, ok := g.CellIndex(p)
	if !ok {
		return -1
	}
	return g.CellID(col, row)
}

// CellRect returns the extent of the cell (col, row).
func (g *Grid) CellRect(col, row int) geo.Rect {
	min := geo.Pt(g.Origin.X+float64(col)*g.CellSize, g.Origin.Y+float64(row)*g.CellSize)
	return geo.Rect{Min: min, Max: geo.Pt(min.X+g.CellSize, min.Y+g.CellSize)}
}

// CellRectByID returns the extent of the cell with the given dense id.
func (g *Grid) CellRectByID(id int) geo.Rect {
	return g.CellRect(id%g.Cols, id/g.Cols)
}

// CellCenter returns the centre point of the cell (col, row).
func (g *Grid) CellCenter(col, row int) geo.Point { return g.CellRect(col, row).Center() }

// cellRange returns the inclusive col/row range of cells intersecting r,
// clipped to the grid; ok is false when r misses the grid entirely.
func (g *Grid) cellRange(r geo.Rect) (minCol, maxCol, minRow, maxRow int, ok bool) {
	if r.IsEmpty() || !g.Bounds().Intersects(r) {
		return 0, 0, 0, 0, false
	}
	clipped := g.Bounds().Intersection(r)
	minCol = clampInt(int(math.Floor((clipped.Min.X-g.Origin.X)/g.CellSize)), 0, g.Cols-1)
	maxCol = clampInt(int(math.Floor((clipped.Max.X-g.Origin.X)/g.CellSize)), 0, g.Cols-1)
	minRow = clampInt(int(math.Floor((clipped.Min.Y-g.Origin.Y)/g.CellSize)), 0, g.Rows-1)
	maxRow = clampInt(int(math.Floor((clipped.Max.Y-g.Origin.Y)/g.CellSize)), 0, g.Rows-1)
	return minCol, maxCol, minRow, maxRow, true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CellsIntersecting returns the ids of all cells whose extent intersects r,
// in ascending (row-major) id order.
func (g *Grid) CellsIntersecting(r geo.Rect) []int {
	var out []int
	g.VisitCellsIntersecting(r, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// VisitCellsIntersecting calls fn for every cell id whose extent intersects
// r, in ascending (row-major) id order, until fn returns false.
func (g *Grid) VisitCellsIntersecting(r geo.Rect, fn func(id int) bool) {
	minCol, maxCol, minRow, maxRow, ok := g.cellRange(r)
	if !ok {
		return
	}
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			if !fn(g.CellID(col, row)) {
				return
			}
		}
	}
}
