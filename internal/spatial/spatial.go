// Package spatial is the shared spatial-index layer behind SeMiTri's three
// annotation algorithms. All three layers are spatial joins between
// trajectory geometry and a 3rd-party source — land-use cells (region layer,
// Alg. 1), road segments (line layer, Alg. 2) and POIs (point layer,
// Alg. 3). The land-use raster is Grid arithmetic; the vector sources (road
// segments, POIs, named regions) program against one small contract, the
// Index interface, instead of each source's internals.
//
// The one Index implementation is STRTree, a Sort-Tile-Recursive packed
// R-tree (Leutenegger et al., ICDE 1997): every source is loaded once and
// queried forever, and the tree answers range, point containment and
// refined nearest-neighbour queries exactly, so callers never need a
// full-scan fallback. The query helpers (Within, WithinDistance, Covering,
// NearestBy) are written against the interface, which keeps an index down
// to rectangle traversal (Visit) and nearest-first traversal (VisitNearest).
// Forest is the insertable index the query engine keeps live episodes in: a
// log-structured set of the same packed trees, built by the same STR tiling,
// over a small buffer. Both lay their trees out flat, as node arrays and
// int32 rectangle numbers.
//
// Cursor adds a locality cache on top of any Index: GPS records arrive in
// near-sorted spatial order, so consecutive candidate queries mostly hit the
// same neighbourhood. A cursor caches the last (inflated) query result and
// answers nearby queries by filtering it, without touching the index. One
// cursor per moving object (they are not safe for concurrent use) turns the
// per-record candidate lookup of the annotation hot path into a slice scan.
package spatial

import (
	"math"

	"semitri/internal/geo"
)

// Item is a value stored in an index together with its bounding rectangle.
// Point data uses a degenerate rectangle (Min == Max).
type Item struct {
	Rect  geo.Rect
	Value any
}

// Index is the read-only contract the annotation layers program against.
// Implementations are immutable once built and safe for concurrent use.
type Index interface {
	// Len returns the number of items stored.
	Len() int
	// Bounds returns the bounding rectangle of all items (empty when Len==0).
	Bounds() geo.Rect
	// Visit calls fn for every item whose rectangle intersects r, until fn
	// returns false. Visit order is implementation-defined but deterministic.
	Visit(r geo.Rect, fn func(Item) bool)
	// VisitNearest calls fn for items in non-decreasing order of rectangle
	// distance to p (ties in implementation-defined order), until fn returns
	// false or the items run out. The traversal is exact: every item is
	// eventually visited, which is what lets NearestBy terminate without a
	// fallback scan.
	VisitNearest(p geo.Point, fn func(item Item, rectDist float64) bool)
}

// Within returns the items whose rectangle intersects r.
func Within(ix Index, r geo.Rect) []Item { return AppendWithin(nil, ix, r) }

// AppendWithin appends the items whose rectangle intersects r to dst.
func AppendWithin(dst []Item, ix Index, r geo.Rect) []Item {
	ix.Visit(r, func(it Item) bool {
		dst = append(dst, it)
		return true
	})
	return dst
}

// WithinDistance returns the items whose rectangle lies within dist of p
// (rectangle distance; exact distance for point items).
func WithinDistance(ix Index, p geo.Point, dist float64) []Item {
	return AppendWithinDistance(nil, ix, p, dist)
}

// AppendWithinDistance appends the items whose rectangle lies within dist of
// p to dst.
func AppendWithinDistance(dst []Item, ix Index, p geo.Point, dist float64) []Item {
	distSq := dist * dist
	ix.Visit(geo.RectAround(p, dist), func(it Item) bool {
		if rectDistSq(it.Rect, p) <= distSq {
			dst = append(dst, it)
		}
		return true
	})
	return dst
}

// rectDistSq is the squared rectangle-to-point distance — the hot filters
// compare against a squared radius to stay off the hypot path.
func rectDistSq(r geo.Rect, p geo.Point) float64 {
	var dx, dy float64
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// Covering returns the items whose rectangle contains p — the candidate set
// of a point-in-polygon query (callers refine against the exact geometry).
func Covering(ix Index, p geo.Point) []Item { return AppendCovering(nil, ix, p) }

// AppendCovering appends the items whose rectangle contains p to dst.
func AppendCovering(dst []Item, ix Index, p geo.Point) []Item {
	ix.Visit(geo.Rect{Min: p, Max: p}, func(it Item) bool {
		if it.Rect.ContainsPoint(p) {
			dst = append(dst, it)
		}
		return true
	})
	return dst
}

// NearestBy returns the item minimising dist(item), where dist must be
// bounded below by the item's rectangle distance to p (true for any metric
// to geometry inside the bounding box, e.g. the point–segment distance of
// Eq. 1). The search walks items nearest-first and stops as soon as the
// rectangle lower bound exceeds the best refined distance, so it is exact on
// any index size — including one- and zero-item indexes — with no fallback.
func NearestBy(ix Index, p geo.Point, dist func(Item) float64) (Item, float64, bool) {
	best := math.Inf(1)
	var bestItem Item
	found := false
	ix.VisitNearest(p, func(it Item, rectDist float64) bool {
		if rectDist > best {
			return false
		}
		if d := dist(it); d < best {
			best, bestItem, found = d, it, true
		}
		return true
	})
	return bestItem, best, found
}

// Nearest returns the item closest to p by rectangle distance (exact
// distance for point items).
func Nearest(ix Index, p geo.Point) (Item, float64, bool) {
	return NearestBy(ix, p, func(it Item) float64 { return it.Rect.DistanceToPoint(p) })
}
