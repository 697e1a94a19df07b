// Package landuse models the semantic-region data source used by SeMiTri's
// Semantic Region Annotation Layer: a grid of land-use cells classified with
// the Swisstopo ontology of Fig. 4 (4 top-level categories, 17
// sub-categories), plus free-form named regions (campus, recreation areas)
// comparable to the OpenStreetMap polygons used in the paper.
//
// Because the original Swisstopo dataset (1,936,439 cells of 100m x 100m) is
// licensed, the package also provides a synthetic generator that produces a
// city-like land-use map with the same ontology: a dense urban core of
// building and transportation cells, commercial and recreational pockets,
// agricultural belts and wooded/unproductive periphery, including a lake.
package landuse

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"semitri/internal/geo"
	"semitri/internal/spatial"
)

// Category is a land-use sub-category code of the Swisstopo ontology
// (Fig. 4), e.g. "1.2" for building areas.
type Category string

// The 17 land-use sub-categories of Fig. 4.
const (
	IndustrialCommercial Category = "1.1"
	Building             Category = "1.2"
	Transportation       Category = "1.3"
	SpecialUrban         Category = "1.4"
	Recreational         Category = "1.5"
	Orchard              Category = "2.6"
	ArableLand           Category = "2.7"
	Meadows              Category = "2.8"
	AlpineAgriculture    Category = "2.9"
	Forest               Category = "3.10"
	BrushForest          Category = "3.11"
	Woods                Category = "3.12"
	Lakes                Category = "4.13"
	Rivers               Category = "4.14"
	UnproductiveVeg      Category = "4.15"
	BareLand             Category = "4.16"
	Glaciers             Category = "4.17"
)

// AllCategories lists the 17 sub-categories in ontology order.
var AllCategories = []Category{
	IndustrialCommercial, Building, Transportation, SpecialUrban, Recreational,
	Orchard, ArableLand, Meadows, AlpineAgriculture,
	Forest, BrushForest, Woods,
	Lakes, Rivers, UnproductiveVeg, BareLand, Glaciers,
}

// TopLevel returns the top-level class (L1..L4) of the sub-category.
func (c Category) TopLevel() string {
	if len(c) == 0 {
		return ""
	}
	switch c[0] {
	case '1':
		return "L1 settlement and urban"
	case '2':
		return "L2 agricultural"
	case '3':
		return "L3 wooded"
	case '4':
		return "L4 unproductive"
	}
	return ""
}

// Label returns the human-readable name of the sub-category (Fig. 4).
func (c Category) Label() string {
	switch c {
	case IndustrialCommercial:
		return "industrial and commercial area"
	case Building:
		return "building areas"
	case Transportation:
		return "transportation areas"
	case SpecialUrban:
		return "special urban areas"
	case Recreational:
		return "recreational areas and cemeteries"
	case Orchard:
		return "orchard, vineyard and horticulture areas"
	case ArableLand:
		return "arable land"
	case Meadows:
		return "meadows, farm pastures"
	case AlpineAgriculture:
		return "alpine agricultural areas"
	case Forest:
		return "forest"
	case BrushForest:
		return "brush forest"
	case Woods:
		return "woods"
	case Lakes:
		return "lakes"
	case Rivers:
		return "rivers"
	case UnproductiveVeg:
		return "unproductive vegetation"
	case BareLand:
		return "bare land"
	case Glaciers:
		return "glaciers, perpetual snow"
	}
	return string(c)
}

// Valid reports whether c is one of the 17 ontology sub-categories.
func (c Category) Valid() bool {
	for _, k := range AllCategories {
		if c == k {
			return true
		}
	}
	return false
}

// Cell is one land-use grid cell (100m x 100m in the Swisstopo source).
type Cell struct {
	ID       int
	Extent   geo.Rect
	Category Category
}

// Map is a land-use map: a grid of classified cells plus optional free-form
// named regions. It implements the semantic-region source (Pregion). The
// raster is backed by the shared spatial layer: point location is O(1)
// arithmetic on a spatial.Grid, rectangle joins walk the grid through
// VisitCells, and the named regions sit in an STR tree over their polygon
// bounding boxes.
type Map struct {
	grid     *spatial.Grid
	cells    []Category // indexed by dense cell id
	regions  []NamedRegion
	cellArea float64

	// regMu guards the lazily bulk-loaded named-region index; AddNamedRegion
	// invalidates it, the first query after a mutation rebuilds it.
	regMu  sync.Mutex
	regIdx spatial.Index // over region polygon bounds; value = int index into regions
}

// NamedRegion is a free-form semantic region (e.g. "EPFL campus") with a
// polygonal extent, comparable to the OpenStreetMap regions of §4.1.
type NamedRegion struct {
	Name    string
	Kind    string // e.g. "campus", "recreation", "market"
	Polygon geo.Polygon
}

// NewMap creates a land-use map covering extent with square cells of the
// given size; every cell starts as Meadows (the most neutral class).
func NewMap(extent geo.Rect, cellSize float64) (*Map, error) {
	g, err := spatial.NewGrid(extent, cellSize)
	if err != nil {
		return nil, fmt.Errorf("landuse: %w", err)
	}
	cells := make([]Category, g.NumCells())
	for i := range cells {
		cells[i] = Meadows
	}
	return &Map{grid: g, cells: cells, cellArea: cellSize * cellSize}, nil
}

// Grid exposes the underlying grid geometry.
func (m *Map) Grid() *spatial.Grid { return m.grid }

// NumCells returns the number of land-use cells.
func (m *Map) NumCells() int { return len(m.cells) }

// Bounds returns the extent covered by the map.
func (m *Map) Bounds() geo.Rect { return m.grid.Bounds() }

// SetCategory classifies the cell containing p; it returns false when p is
// outside the map extent or the category is invalid.
func (m *Map) SetCategory(p geo.Point, c Category) bool {
	if !c.Valid() {
		return false
	}
	id := m.grid.CellAt(p)
	if id < 0 {
		return false
	}
	m.cells[id] = c
	return true
}

// SetCategoryRect classifies every cell intersecting r and returns how many
// cells were updated.
func (m *Map) SetCategoryRect(r geo.Rect, c Category) int {
	if !c.Valid() {
		return 0
	}
	ids := m.grid.CellsIntersecting(r)
	for _, id := range ids {
		m.cells[id] = c
	}
	return len(ids)
}

// CellAt returns the full cell record containing p.
func (m *Map) CellAt(p geo.Point) (Cell, bool) {
	id := m.grid.CellAt(p)
	if id < 0 {
		return Cell{}, false
	}
	return Cell{ID: id, Extent: m.grid.CellRectByID(id), Category: m.cells[id]}, true
}

// CellsIntersecting returns the cells whose extent intersects r.
func (m *Map) CellsIntersecting(r geo.Rect) []Cell {
	ids := m.grid.CellsIntersecting(r)
	out := make([]Cell, len(ids))
	for i, id := range ids {
		out[i] = Cell{ID: id, Extent: m.grid.CellRectByID(id), Category: m.cells[id]}
	}
	return out
}

// AddNamedRegion registers a free-form region. Regions are added while the
// map is being built; mutation is not safe concurrently with queries.
func (m *Map) AddNamedRegion(r NamedRegion) {
	m.regions = append(m.regions, r)
	m.regMu.Lock()
	m.regIdx = nil // rebuilt by the next query
	m.regMu.Unlock()
}

// NamedRegions returns all registered free-form regions.
func (m *Map) NamedRegions() []NamedRegion { return append([]NamedRegion(nil), m.regions...) }

// RegionIndex returns the STR tree over the named-region polygon bounding
// boxes (item values are indices into NamedRegions order), building it on
// first use; nil when no regions are registered. Candidates still need the
// exact polygon test.
func (m *Map) RegionIndex() spatial.Index {
	if len(m.regions) == 0 {
		return nil
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if m.regIdx == nil {
		items := make([]spatial.Item, len(m.regions))
		for i, reg := range m.regions {
			items[i] = spatial.Item{Rect: reg.Polygon.Bounds(), Value: i}
		}
		m.regIdx = spatial.NewSTRTree(items)
	}
	return m.regIdx
}

// namedRegionsWhere collects, in registration order, the regions among the
// index candidates produced by query that pass the exact geometric test.
func (m *Map) namedRegionsWhere(query func(spatial.Index) []spatial.Item, test func(NamedRegion) bool) []NamedRegion {
	ix := m.RegionIndex()
	if ix == nil {
		return nil
	}
	idxs := make([]int, 0, 4)
	for _, it := range query(ix) {
		if i := it.Value.(int); test(m.regions[i]) {
			idxs = append(idxs, i)
		}
	}
	// Registration order: annotators attach the first matching region, which
	// must not depend on index traversal order.
	sort.Ints(idxs)
	out := make([]NamedRegion, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, m.regions[i])
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// NamedRegionsAt returns the free-form regions containing the point, in
// registration order.
func (m *Map) NamedRegionsAt(p geo.Point) []NamedRegion {
	return m.namedRegionsWhere(
		func(ix spatial.Index) []spatial.Item { return spatial.Covering(ix, p) },
		func(r NamedRegion) bool { return r.Polygon.ContainsPoint(p) },
	)
}

// NamedRegionsIntersecting returns the free-form regions intersecting rect,
// in registration order.
func (m *Map) NamedRegionsIntersecting(rect geo.Rect) []NamedRegion {
	return m.namedRegionsWhere(
		func(ix spatial.Index) []spatial.Item { return spatial.Within(ix, rect) },
		func(r NamedRegion) bool { return r.Polygon.IntersectsRect(rect) },
	)
}

// VisitCells calls fn for every cell whose extent intersects r, in
// ascending (row-major) id order, until fn returns false. It is the region
// layer's rectangle join against the raster: grid arithmetic, nothing
// materialised.
func (m *Map) VisitCells(r geo.Rect, fn func(Cell) bool) {
	m.grid.VisitCellsIntersecting(r, func(id int) bool {
		return fn(Cell{ID: id, Extent: m.grid.CellRectByID(id), Category: m.cells[id]})
	})
}

// Cursor caches the last cell lookup to exploit GPS locality: consecutive
// records of one object usually stay in the same 100 m cell, so the lookup
// degenerates to a rectangle containment test. Not safe for concurrent use;
// keep one per moving object.
type Cursor struct {
	valid        bool
	cell         Cell
	hits, misses uint64
}

// Stats returns how many lookups hit and missed the cached cell.
func (c *Cursor) Stats() (hits, misses uint64) { return c.hits, c.misses }

// CellAtCursor is CellAt with a last-cell cache; c may be nil (uncached).
// The half-open containment test matches the raster's floor arithmetic, so
// cached and uncached answers are identical.
func (m *Map) CellAtCursor(p geo.Point, c *Cursor) (Cell, bool) {
	if c == nil {
		return m.CellAt(p)
	}
	if c.valid &&
		p.X >= c.cell.Extent.Min.X && p.X < c.cell.Extent.Max.X &&
		p.Y >= c.cell.Extent.Min.Y && p.Y < c.cell.Extent.Max.Y {
		c.hits++
		return c.cell, true
	}
	c.misses++
	cell, ok := m.CellAt(p)
	if ok {
		c.cell, c.valid = cell, true
	}
	return cell, ok
}

// GeneratorConfig controls the synthetic city land-use generator.
type GeneratorConfig struct {
	// Extent of the map in the planar frame (metres).
	Extent geo.Rect
	// CellSize is the land-use cell side (the paper's source uses 100 m).
	CellSize float64
	// Seed drives all randomness so generated maps are reproducible.
	Seed int64
	// UrbanCoreRadius is the radius of the dense urban core around the
	// extent centre; building/commercial/transport cells dominate inside.
	UrbanCoreRadius float64
	// LakeFraction is the approximate fraction of the extent covered by a
	// lake placed along the southern edge (Lausanne-like); 0 disables it.
	LakeFraction float64
}

// DefaultGeneratorConfig returns a 20 km x 20 km city with 100 m cells and a
// lakeside, roughly the Lausanne metropolitan footprint of the experiments.
func DefaultGeneratorConfig(seed int64) GeneratorConfig {
	return GeneratorConfig{
		Extent:          geo.NewRect(geo.Pt(0, 0), geo.Pt(20000, 20000)),
		CellSize:        100,
		Seed:            seed,
		UrbanCoreRadius: 6000,
		LakeFraction:    0.12,
	}
}

// Generate builds a synthetic land-use map following the configuration. The
// layout mimics a lakeside European city: a lake strip at the bottom, an
// urban core with building/commercial/transport cells, recreational pockets,
// an agricultural ring and a wooded/unproductive periphery.
func Generate(cfg GeneratorConfig) (*Map, error) {
	m, err := NewMap(cfg.Extent, cfg.CellSize)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := m.grid
	center := cfg.Extent.Center()
	maxDist := center.DistanceTo(cfg.Extent.Min)
	lakeHeight := cfg.Extent.Height() * cfg.LakeFraction
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			id := g.CellID(col, row)
			c := g.CellCenter(col, row)
			// Lake strip along the southern edge.
			if cfg.LakeFraction > 0 && c.Y < cfg.Extent.Min.Y+lakeHeight {
				m.cells[id] = Lakes
				continue
			}
			d := c.DistanceTo(center)
			switch {
			case d < cfg.UrbanCoreRadius:
				// Urban core: building 50%, transport 25%, industrial 10%,
				// special urban 5%, recreational 10%.
				r := rng.Float64()
				switch {
				case r < 0.50:
					m.cells[id] = Building
				case r < 0.75:
					m.cells[id] = Transportation
				case r < 0.85:
					m.cells[id] = IndustrialCommercial
				case r < 0.90:
					m.cells[id] = SpecialUrban
				default:
					m.cells[id] = Recreational
				}
			case d < cfg.UrbanCoreRadius*1.6:
				// Suburban ring: residential pockets within agriculture.
				r := rng.Float64()
				switch {
				case r < 0.30:
					m.cells[id] = Building
				case r < 0.40:
					m.cells[id] = Transportation
				case r < 0.55:
					m.cells[id] = Meadows
				case r < 0.75:
					m.cells[id] = ArableLand
				case r < 0.85:
					m.cells[id] = Orchard
				default:
					m.cells[id] = Recreational
				}
			case d < maxDist*0.8:
				// Rural belt.
				r := rng.Float64()
				switch {
				case r < 0.35:
					m.cells[id] = ArableLand
				case r < 0.60:
					m.cells[id] = Meadows
				case r < 0.80:
					m.cells[id] = Forest
				case r < 0.88:
					m.cells[id] = Woods
				case r < 0.93:
					m.cells[id] = BrushForest
				case r < 0.96:
					m.cells[id] = Rivers
				default:
					m.cells[id] = AlpineAgriculture
				}
			default:
				// Periphery: wooded and unproductive.
				r := rng.Float64()
				switch {
				case r < 0.45:
					m.cells[id] = Forest
				case r < 0.65:
					m.cells[id] = Meadows
				case r < 0.80:
					m.cells[id] = UnproductiveVeg
				case r < 0.92:
					m.cells[id] = BareLand
				default:
					m.cells[id] = Glaciers
				}
			}
		}
	}
	// Free-form regions: a campus, a recreation centre with swimming pool
	// and a market square, the kinds of regions used in Fig. 3.
	m.AddNamedRegion(NamedRegion{
		Name:    "campus",
		Kind:    "campus",
		Polygon: geo.RegularPolygon(geo.Pt(center.X-3000, center.Y+1500), 900, 8),
	})
	m.AddNamedRegion(NamedRegion{
		Name:    "recreation-center",
		Kind:    "recreation",
		Polygon: geo.RegularPolygon(geo.Pt(center.X+2500, center.Y-2000+lakeHeight), 500, 6),
	})
	m.AddNamedRegion(NamedRegion{
		Name:    "market-square",
		Kind:    "market",
		Polygon: geo.RegularPolygon(geo.Pt(center.X+800, center.Y+600), 250, 4),
	})
	return m, nil
}
