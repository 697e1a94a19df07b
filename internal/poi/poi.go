// Package poi models the semantic-point data source of SeMiTri: points of
// interest with the five top-level categories of the Milan dataset used in
// §4.3/§5.2 (services, feedings, item sale, person life, unknown), a
// spatial index for neighbourhood queries and a synthetic urban POI
// generator that reproduces the category frequencies and the dense-core /
// sparse-periphery density profile of the original (proprietary) dataset.
//
// The index comes from the shared spatial layer: Add only buffers, and the
// first query bulk-loads an STR tree over the POI positions. Separately from
// the index, the set keeps a fixed-geometry spatial.Grid used by the point
// annotation layer to discretize its emission probabilities (Figs. 7/8).
package poi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"semitri/internal/geo"
	"semitri/internal/spatial"
)

// Category is one of the five Milan top-level POI categories.
type Category int

const (
	// Services covers banks, post offices, public services.
	Services Category = iota
	// Feedings covers restaurants, bars, cafes.
	Feedings
	// ItemSale covers shops, groceries, malls.
	ItemSale
	// PersonLife covers sport, health, education, leisure.
	PersonLife
	// Unknown covers uncategorised POIs.
	Unknown
)

// NumCategories is the number of POI categories.
const NumCategories = 5

// AllCategories lists the categories in index order.
var AllCategories = []Category{Services, Feedings, ItemSale, PersonLife, Unknown}

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Services:
		return "services"
	case Feedings:
		return "feedings"
	case ItemSale:
		return "item sale"
	case PersonLife:
		return "person life"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Valid reports whether c is one of the five categories.
func (c Category) Valid() bool { return c >= Services && c <= Unknown }

// MilanCounts are the per-category POI counts of the Milan dataset reported
// in Fig. 5 of the paper (4,339 services, 7,036 feedings, 12,510 item sale,
// 15,371 person life, 516 unknown, total 39,772). They calibrate both the
// synthetic generator and the HMM initial distribution π.
var MilanCounts = map[Category]int{
	Services:   4339,
	Feedings:   7036,
	ItemSale:   12510,
	PersonLife: 15371,
	Unknown:    516,
}

// MilanTotal is the total POI count of the Milan dataset.
const MilanTotal = 39772

// MilanShares returns the Milan category frequencies as a probability
// vector indexed by Category.
func MilanShares() []float64 {
	out := make([]float64, NumCategories)
	for c, n := range MilanCounts {
		out[int(c)] = float64(n) / float64(MilanTotal)
	}
	return out
}

// POI is a point of interest (a semantic place with a point extent).
type POI struct {
	ID       int
	Name     string
	Category Category
	Position geo.Point
}

// Set is a collection of POIs with a bulk-loaded spatial index.
type Set struct {
	pois  []*POI
	byCat map[Category][]*POI
	grid  *spatial.Grid // emission-discretization geometry (point layer)

	// mu guards the lazily bulk-loaded index; Add invalidates it, the first
	// query after a mutation rebuilds it.
	mu  sync.Mutex
	idx spatial.Index
}

// NewSet creates an empty POI set covering the given extent; cellSize
// controls the resolution of the emission-discretization grid.
func NewSet(extent geo.Rect, cellSize float64) (*Set, error) {
	g, err := spatial.NewGrid(extent, cellSize)
	if err != nil {
		return nil, fmt.Errorf("poi: %w", err)
	}
	return &Set{grid: g, byCat: map[Category][]*POI{}}, nil
}

// Add inserts a POI; it returns an error when the category is invalid or
// the position is outside the set's extent. The set may be mutated while it
// is being built; once annotators are constructed over it, it must be
// treated as read-only.
func (s *Set) Add(name string, cat Category, pos geo.Point) (*POI, error) {
	if !cat.Valid() {
		return nil, fmt.Errorf("poi: invalid category %d", int(cat))
	}
	if !s.grid.Bounds().ContainsPoint(pos) {
		return nil, errors.New("poi: position outside the set extent")
	}
	p := &POI{ID: len(s.pois), Name: name, Category: cat, Position: pos}
	s.pois = append(s.pois, p)
	s.byCat[cat] = append(s.byCat[cat], p)
	s.mu.Lock()
	s.idx = nil // rebuilt by the next query
	s.mu.Unlock()
	return p, nil
}

// Index returns the STR tree over the POI positions (items carry *POI
// values), building it on first use. The point annotation layer captures it
// once and issues its HMM candidate queries through the spatial.Index
// interface.
func (s *Set) Index() spatial.Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		items := make([]spatial.Item, len(s.pois))
		for i, p := range s.pois {
			items[i] = spatial.Item{Rect: geo.Rect{Min: p.Position, Max: p.Position}, Value: p}
		}
		s.idx = spatial.NewSTRTree(items)
	}
	return s.idx
}

// Len returns the number of POIs in the set.
func (s *Set) Len() int { return len(s.pois) }

// All returns all POIs (shared slice; callers must not mutate).
func (s *Set) All() []*POI { return s.pois }

// ByCategory returns the POIs of the given category.
func (s *Set) ByCategory(c Category) []*POI { return s.byCat[c] }

// CategoryShares returns the per-category frequencies (the π vector of the
// HMM, §4.3 "Initial Probabilities"). An empty set yields a uniform vector.
func (s *Set) CategoryShares() []float64 {
	out := make([]float64, NumCategories)
	if len(s.pois) == 0 {
		for i := range out {
			out[i] = 1.0 / NumCategories
		}
		return out
	}
	for c, list := range s.byCat {
		out[int(c)] = float64(len(list)) / float64(len(s.pois))
	}
	return out
}

// Grid exposes the emission-discretization grid geometry used by the point
// annotation layer (Figs. 7/8).
func (s *Set) Grid() *spatial.Grid { return s.grid }

// Nearest returns the POI closest to p; ok is false for an empty set.
func (s *Set) Nearest(p geo.Point) (*POI, float64, bool) {
	it, d, ok := spatial.Nearest(s.Index(), p)
	if !ok {
		return nil, 0, false
	}
	return it.Value.(*POI), d, true
}

// GeneratorConfig controls the synthetic urban POI generator.
type GeneratorConfig struct {
	// Extent of the POI set.
	Extent geo.Rect
	// Total number of POIs to generate.
	Total int
	// Seed drives reproducibility.
	Seed int64
	// Shares is the target category distribution indexed by Category;
	// nil uses the Milan shares.
	Shares []float64
	// CenterConcentration in (0,1] controls how strongly POIs concentrate
	// around the extent centre (1 = all in the core, 0.6 is city-like).
	CenterConcentration float64
	// ClusterCount is the number of secondary commercial clusters.
	ClusterCount int
	// IndexCellSize is the cell size of the set's emission-discretization
	// grid (metres).
	IndexCellSize float64
}

// DefaultGeneratorConfig returns a Milan-like configuration scaled to the
// given total POI count over a 10 km x 10 km extent.
func DefaultGeneratorConfig(total int, seed int64) GeneratorConfig {
	return GeneratorConfig{
		Extent:              geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)),
		Total:               total,
		Seed:                seed,
		Shares:              MilanShares(),
		CenterConcentration: 0.6,
		ClusterCount:        8,
		IndexCellSize:       100,
	}
}

// Generate builds a synthetic POI set: a dense core around the extent
// centre, a handful of secondary clusters (malls, neighbourhood centres) and
// a uniform background, with per-POI categories drawn from the configured
// shares. The result reproduces the two properties that matter to the HMM
// point layer: realistic category frequencies and high local density with
// many candidate POIs around urban stops.
func Generate(cfg GeneratorConfig) (*Set, error) {
	if cfg.Total <= 0 {
		return nil, errors.New("poi: Total must be positive")
	}
	if cfg.IndexCellSize <= 0 {
		cfg.IndexCellSize = 100
	}
	shares := cfg.Shares
	if shares == nil {
		shares = MilanShares()
	}
	if len(shares) != NumCategories {
		return nil, fmt.Errorf("poi: Shares must have %d entries", NumCategories)
	}
	set, err := NewSet(cfg.Extent, cfg.IndexCellSize)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	center := cfg.Extent.Center()
	coreRadius := cfg.Extent.Width() * 0.15
	// Secondary cluster centres.
	clusters := make([]geo.Point, cfg.ClusterCount)
	for i := range clusters {
		clusters[i] = geo.Pt(
			cfg.Extent.Min.X+rng.Float64()*cfg.Extent.Width(),
			cfg.Extent.Min.Y+rng.Float64()*cfg.Extent.Height(),
		)
	}
	cumulative := make([]float64, NumCategories)
	var acc float64
	for i, s := range shares {
		acc += s
		cumulative[i] = acc
	}
	drawCategory := func() Category {
		r := rng.Float64() * acc
		for i, c := range cumulative {
			if r <= c {
				return Category(i)
			}
		}
		return Unknown
	}
	clampToExtent := func(p geo.Point) geo.Point {
		x := p.X
		y := p.Y
		if x < cfg.Extent.Min.X {
			x = cfg.Extent.Min.X
		}
		if x > cfg.Extent.Max.X {
			x = cfg.Extent.Max.X
		}
		if y < cfg.Extent.Min.Y {
			y = cfg.Extent.Min.Y
		}
		if y > cfg.Extent.Max.Y {
			y = cfg.Extent.Max.Y
		}
		return geo.Pt(x, y)
	}
	for i := 0; i < cfg.Total; i++ {
		var pos geo.Point
		r := rng.Float64()
		switch {
		case r < cfg.CenterConcentration:
			// Dense urban core: Gaussian around the centre.
			pos = geo.Pt(center.X+rng.NormFloat64()*coreRadius, center.Y+rng.NormFloat64()*coreRadius)
		case r < cfg.CenterConcentration+0.25 && len(clusters) > 0:
			c := clusters[rng.Intn(len(clusters))]
			pos = geo.Pt(c.X+rng.NormFloat64()*coreRadius*0.3, c.Y+rng.NormFloat64()*coreRadius*0.3)
		default:
			pos = geo.Pt(
				cfg.Extent.Min.X+rng.Float64()*cfg.Extent.Width(),
				cfg.Extent.Min.Y+rng.Float64()*cfg.Extent.Height(),
			)
		}
		pos = clampToExtent(pos)
		cat := drawCategory()
		name := fmt.Sprintf("%s-%d", cat.String(), i)
		if _, err := set.Add(name, cat, pos); err != nil {
			return nil, err
		}
	}
	return set, nil
}
