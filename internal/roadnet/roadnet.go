// Package roadnet models the semantic-line data source of SeMiTri: a road
// network made of segments (Pline) with road classes, indexed through the
// shared spatial layer (internal/spatial) for candidate-segment selection,
// plus a connectivity graph with shortest-path routing that the synthetic
// workload generator uses to produce road-constrained vehicle and people
// movement with exact ground-truth segment sequences (the role of Krumm's
// Seattle benchmark in the paper's Fig. 10 experiment).
//
// The spatial index is bulk-loaded lazily: AddSegment only buffers, and the
// first query builds an STR tree over all segment bounding boxes. The index
// answers every query exactly — including NearestSegmentIn on one-segment
// networks — so there is no full-scan fallback anywhere.
package roadnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"semitri/internal/geo"
	"semitri/internal/spatial"
)

// Class describes the kind of road a segment belongs to. The class feeds
// SeMiTri's transportation-mode inference (§4.2): metro rails imply the
// metro mode, footpaths imply walking or cycling, and ordinary roads allow
// bus or car movement.
type Class int

const (
	// Footpath is a pedestrian/cycle path not open to motorised traffic.
	Footpath Class = iota
	// Residential is a local street.
	Residential
	// Arterial is a main urban road carrying bus lines.
	Arterial
	// Highway is a motorway/high-speed road.
	Highway
	// MetroRail is a rail/metro track.
	MetroRail
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Footpath:
		return "footpath"
	case Residential:
		return "residential"
	case Arterial:
		return "arterial"
	case Highway:
		return "highway"
	case MetroRail:
		return "metro"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// TypicalSpeed returns a representative travel speed on the class in m/s,
// used by the synthetic workloads.
func (c Class) TypicalSpeed() float64 {
	switch c {
	case Footpath:
		return 1.4
	case Residential:
		return 8
	case Arterial:
		return 12
	case Highway:
		return 27
	case MetroRail:
		return 16
	}
	return 8
}

// Segment is one road segment between two crossings (a semantic line).
type Segment struct {
	ID    int
	Name  string
	Class Class
	Geom  geo.Segment
	// From and To are node ids in the network graph.
	From int
	To   int
}

// Length returns the geometric length of the segment.
func (s *Segment) Length() float64 { return s.Geom.Length() }

// Network is a road network: nodes (crossings), segments, a spatial index
// over segment bounding boxes and an adjacency list for routing. The
// network may be mutated while it is being built; once annotators are
// constructed over it, it must be treated as read-only (queries are then
// safe from any number of goroutines).
type Network struct {
	nodes    []geo.Point
	segments []*Segment
	adj      map[int][]adjEdge
	bounds   geo.Rect

	// mu guards the lazily bulk-loaded spatial index; AddSegment invalidates
	// it, the first query after a mutation rebuilds it.
	mu    sync.Mutex
	index spatial.Index
}

type adjEdge struct {
	segID int
	to    int
	cost  float64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{adj: map[int][]adjEdge{}, bounds: geo.EmptyRect()}
}

// AddNode registers a crossing and returns its node id.
func (n *Network) AddNode(p geo.Point) int {
	n.nodes = append(n.nodes, p)
	return len(n.nodes) - 1
}

// Node returns the position of a node id.
func (n *Network) Node(id int) (geo.Point, error) {
	if id < 0 || id >= len(n.nodes) {
		return geo.Point{}, fmt.Errorf("roadnet: node %d out of range", id)
	}
	return n.nodes[id], nil
}

// NumNodes returns the number of crossings.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumSegments returns the number of road segments.
func (n *Network) NumSegments() int { return len(n.segments) }

// AddSegment connects two existing nodes with a bidirectional segment of the
// given class and returns the created segment.
func (n *Network) AddSegment(from, to int, class Class, name string) (*Segment, error) {
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		return nil, fmt.Errorf("roadnet: invalid node ids %d->%d", from, to)
	}
	if from == to {
		return nil, errors.New("roadnet: segment endpoints must differ")
	}
	seg := &Segment{
		ID:    len(n.segments),
		Name:  name,
		Class: class,
		Geom:  geo.Seg(n.nodes[from], n.nodes[to]),
		From:  from,
		To:    to,
	}
	n.segments = append(n.segments, seg)
	n.bounds = n.bounds.Union(seg.Geom.Bounds())
	n.mu.Lock()
	n.index = nil // rebuilt by the next query
	n.mu.Unlock()
	cost := seg.Length()
	n.adj[from] = append(n.adj[from], adjEdge{segID: seg.ID, to: to, cost: cost})
	n.adj[to] = append(n.adj[to], adjEdge{segID: seg.ID, to: from, cost: cost})
	return seg, nil
}

// Segment returns the segment with the given id.
func (n *Network) Segment(id int) (*Segment, error) {
	if id < 0 || id >= len(n.segments) {
		return nil, fmt.Errorf("roadnet: segment %d out of range", id)
	}
	return n.segments[id], nil
}

// Segments returns all segments (shared slice; callers must not mutate).
func (n *Network) Segments() []*Segment { return n.segments }

// Bounds returns the spatial extent of the network.
func (n *Network) Bounds() geo.Rect { return n.bounds }

// SpatialIndex returns the STR tree over the segment bounding boxes (items
// carry *Segment values), building it on first use. The annotation layers
// capture it once and issue all their candidate queries through the
// spatial.Index interface.
func (n *Network) SpatialIndex() spatial.Index {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.index == nil {
		items := make([]spatial.Item, len(n.segments))
		for i, s := range n.segments {
			items[i] = spatial.Item{Rect: s.Geom.Bounds(), Value: s}
		}
		n.index = spatial.NewSTRTree(items)
	}
	return n.index
}

// NearestSegmentIn returns the segment of ix (whose items hold *Segment
// values) geometrically closest to p by the point–segment distance of Eq. 1,
// and that distance; used by the geometric map-matching baseline and when
// the candidate set of Alg. 2 is empty. The bulk-loaded index answers it
// exactly on any network size — a best-first walk refined by the true
// segment distance — with no scan fallback.
func NearestSegmentIn(ix spatial.Index, p geo.Point) (*Segment, float64, bool) {
	it, d, ok := spatial.NearestBy(ix, p, func(it spatial.Item) float64 {
		return it.Value.(*Segment).Geom.DistanceToPoint(p)
	})
	if !ok {
		return nil, 0, false
	}
	return it.Value.(*Segment), d, true
}

// NearestNode returns the node id closest to p.
func (n *Network) NearestNode(p geo.Point) (int, bool) {
	if len(n.nodes) == 0 {
		return 0, false
	}
	best := 0
	bestD := math.Inf(1)
	for i, np := range n.nodes {
		if d := np.DistanceTo(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, true
}

// Route is a path through the network: an ordered list of segment ids with
// the corresponding node sequence.
type Route struct {
	Nodes    []int
	Segments []int
	Length   float64
}

// pqItem is a priority-queue item for Dijkstra.
type pqItem struct {
	node int
	dist float64
}
type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// ShortestPath computes the shortest route between two nodes using Dijkstra
// over segment lengths. allowed filters usable classes (nil allows all).
func (n *Network) ShortestPath(from, to int, allowed func(Class) bool) (*Route, error) {
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		return nil, fmt.Errorf("roadnet: invalid route endpoints %d->%d", from, to)
	}
	if from == to {
		return &Route{Nodes: []int{from}}, nil
	}
	dist := make(map[int]float64, len(n.nodes))
	prevNode := make(map[int]int)
	prevSeg := make(map[int]int)
	visited := make(map[int]bool)
	q := &pq{{node: from, dist: 0}}
	dist[from] = 0
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if visited[cur.node] {
			continue
		}
		visited[cur.node] = true
		if cur.node == to {
			break
		}
		for _, e := range n.adj[cur.node] {
			if allowed != nil && !allowed(n.segments[e.segID].Class) {
				continue
			}
			nd := cur.dist + e.cost
			if old, seen := dist[e.to]; !seen || nd < old {
				dist[e.to] = nd
				prevNode[e.to] = cur.node
				prevSeg[e.to] = e.segID
				heap.Push(q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	if !visited[to] {
		return nil, fmt.Errorf("roadnet: no path from %d to %d", from, to)
	}
	// Reconstruct.
	var nodes []int
	var segs []int
	for at := to; at != from; at = prevNode[at] {
		nodes = append(nodes, at)
		segs = append(segs, prevSeg[at])
	}
	nodes = append(nodes, from)
	reverseInts(nodes)
	reverseInts(segs)
	return &Route{Nodes: nodes, Segments: segs, Length: dist[to]}, nil
}

func reverseInts(v []int) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

// GeneratorConfig controls the synthetic city network generator.
type GeneratorConfig struct {
	// Extent of the network.
	Extent geo.Rect
	// BlockSize is the spacing of the street grid in metres.
	BlockSize float64
	// Seed drives reproducible street irregularity.
	Seed int64
	// WithMetro adds a metro line crossing the extent horizontally.
	WithMetro bool
	// WithHighway adds a highway ring road along the extent border.
	WithHighway bool
	// FootpathFraction is the probability that a grid street is a footpath
	// instead of a residential street.
	FootpathFraction float64
}

// DefaultGeneratorConfig returns a Manhattan-style 10 km x 10 km network
// with 500 m blocks, a metro line and a highway ring.
func DefaultGeneratorConfig(seed int64) GeneratorConfig {
	return GeneratorConfig{
		Extent:           geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)),
		BlockSize:        500,
		Seed:             seed,
		WithMetro:        true,
		WithHighway:      true,
		FootpathFraction: 0.15,
	}
}

// Generate builds a synthetic grid city network: a lattice of residential
// streets with some footpaths, arterials every few blocks, an optional metro
// line and an optional highway ring. The layout gives the heterogeneous
// road structure (parallel roads, dense crossings) that motivates the
// paper's global map-matching algorithm.
func Generate(cfg GeneratorConfig) (*Network, error) {
	if cfg.BlockSize <= 0 {
		return nil, errors.New("roadnet: BlockSize must be positive")
	}
	if cfg.Extent.IsEmpty() {
		return nil, errors.New("roadnet: empty extent")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := NewNetwork()
	cols := int(cfg.Extent.Width()/cfg.BlockSize) + 1
	rows := int(cfg.Extent.Height()/cfg.BlockSize) + 1
	if cols < 2 || rows < 2 {
		return nil, errors.New("roadnet: extent too small for the block size")
	}
	// Create lattice nodes with slight jitter so streets are not perfectly
	// axis-aligned (more realistic matching ambiguity).
	ids := make([][]int, rows)
	for r := 0; r < rows; r++ {
		ids[r] = make([]int, cols)
		for c := 0; c < cols; c++ {
			jx := (rng.Float64() - 0.5) * cfg.BlockSize * 0.1
			jy := (rng.Float64() - 0.5) * cfg.BlockSize * 0.1
			// Keep border nodes on the border so the highway ring is straight.
			if r == 0 || r == rows-1 {
				jy = 0
			}
			if c == 0 || c == cols-1 {
				jx = 0
			}
			p := geo.Pt(cfg.Extent.Min.X+float64(c)*cfg.BlockSize+jx,
				cfg.Extent.Min.Y+float64(r)*cfg.BlockSize+jy)
			ids[r][c] = n.AddNode(p)
		}
	}
	classFor := func(r, c int, horizontal bool) Class {
		// Arterials every 4 blocks.
		if horizontal && r%4 == 0 {
			return Arterial
		}
		if !horizontal && c%4 == 0 {
			return Arterial
		}
		if rng.Float64() < cfg.FootpathFraction {
			return Footpath
		}
		return Residential
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				cl := classFor(r, c, true)
				name := fmt.Sprintf("street-h-%d-%d", r, c)
				if _, err := n.AddSegment(ids[r][c], ids[r][c+1], cl, name); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				cl := classFor(r, c, false)
				name := fmt.Sprintf("street-v-%d-%d", r, c)
				if _, err := n.AddSegment(ids[r][c], ids[r+1][c], cl, name); err != nil {
					return nil, err
				}
			}
		}
	}
	// Highway ring along the border.
	if cfg.WithHighway {
		for c := 0; c+1 < cols; c++ {
			if _, err := n.AddSegment(ids[0][c], ids[0][c+1], Highway, fmt.Sprintf("ring-s-%d", c)); err != nil {
				return nil, err
			}
			if _, err := n.AddSegment(ids[rows-1][c], ids[rows-1][c+1], Highway, fmt.Sprintf("ring-n-%d", c)); err != nil {
				return nil, err
			}
		}
		for r := 0; r+1 < rows; r++ {
			if _, err := n.AddSegment(ids[r][0], ids[r+1][0], Highway, fmt.Sprintf("ring-w-%d", r)); err != nil {
				return nil, err
			}
			if _, err := n.AddSegment(ids[r][cols-1], ids[r+1][cols-1], Highway, fmt.Sprintf("ring-e-%d", r)); err != nil {
				return nil, err
			}
		}
	}
	// Metro line: a dedicated horizontal line through the middle row with
	// its own nodes (offset slightly from the street grid, like the M1 line
	// of Fig. 15).
	if cfg.WithMetro {
		midRow := rows / 2
		y := cfg.Extent.Min.Y + float64(midRow)*cfg.BlockSize + cfg.BlockSize*0.25
		var prev int = -1
		for c := 0; c < cols; c++ {
			x := cfg.Extent.Min.X + float64(c)*cfg.BlockSize
			cur := n.AddNode(geo.Pt(x, y))
			if prev >= 0 {
				if _, err := n.AddSegment(prev, cur, MetroRail, fmt.Sprintf("metro-M1-%d", c)); err != nil {
					return nil, err
				}
			}
			prev = cur
		}
	}
	return n, nil
}
