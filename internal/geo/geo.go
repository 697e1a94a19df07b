// Package geo provides the spatial primitives used throughout SeMiTri:
// points, segments, rectangles and polygons, together with the distance
// metrics and topological predicates required by the annotation layers
// (spatial join and the point–segment distance of Eq. 1 in the paper).
//
// Every workload and every ingest path works in one local planar frame
// expressed in metres, which keeps the geometry exact and fast.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the planar working frame, in metres.
type Point struct {
	X float64
	Y float64
}

// Pt is a shorthand constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by the factor s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of the vectors p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// DistanceTo returns the planar Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Equal reports whether p and q are the same point up to eps.
func (p Point) Equal(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Lerp returns the linear interpolation between p and q at parameter t in [0,1].
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is a straight line segment between two crossings A and B.
// It is the geometric shape of a semantic line (road segment).
type Segment struct {
	A Point
	B Point
}

// Seg is a shorthand constructor for Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.DistanceTo(s.B) }

// Bounds returns the axis-aligned bounding rectangle of the segment.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// ClosestPoint returns the point on the segment closest to q and the
// parameter t in [0,1] locating it along A->B.
func (s Segment) ClosestPoint(q Point) (Point, float64) {
	ab := s.B.Sub(s.A)
	denom := ab.Dot(ab)
	if denom == 0 {
		return s.A, 0
	}
	t := q.Sub(s.A).Dot(ab) / denom
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Lerp(s.B, t), t
}

// DistanceToPoint implements the point–segment distance of Eq. 1 in the
// paper: the perpendicular distance if the projection of q falls on the
// segment, otherwise the distance to the nearer endpoint.
func (s Segment) DistanceToPoint(q Point) float64 {
	cp, _ := s.ClosestPoint(q)
	return cp.DistanceTo(q)
}

// Rect is an axis-aligned rectangle used both as a bounding box and as the
// spatial extent of grid-based regions (land-use cells).
type Rect struct {
	Min Point
	Max Point
}

// NewRect builds a rectangle from any two opposite corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// EmptyRect returns a rectangle that acts as the identity for Union: any
// rectangle unioned with it yields that rectangle.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r is the empty rectangle (or degenerate negative).
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Center returns the centre point of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether the point lies inside or on the boundary.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether the two rectangles overlap (touching counts).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && r.Max.X >= s.Min.X && r.Min.Y <= s.Max.Y && r.Max.Y >= s.Min.Y
}

// Intersection returns the overlapping rectangle of r and s; the result is
// empty when they do not intersect.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns the rectangle grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// DistanceToPoint returns the minimum distance from the rectangle to the
// point (zero when the point is inside).
func (r Rect) DistanceToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// RectAround returns the square rectangle of half-width d centred at p.
func RectAround(p Point, d float64) Rect {
	return Rect{Min: Point{p.X - d, p.Y - d}, Max: Point{p.X + d, p.Y + d}}
}

// BoundsOf returns the bounding rectangle of a set of points. It returns
// the empty rectangle when pts is empty.
func BoundsOf(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Union(Rect{Min: p, Max: p})
	}
	return r
}

// Centroid returns the arithmetic mean of a set of points. It returns the
// origin when pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}

// Polygon is a simple (non self-intersecting) polygon given by its ring of
// vertices; the ring does not need to repeat the first vertex at the end.
// It is the spatial extent of free-form semantic regions such as a campus.
type Polygon []Point

// Bounds returns the bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect { return BoundsOf(pg) }

// ContainsPoint reports whether the point is inside the polygon using the
// ray-casting (even-odd) rule; boundary points count as inside.
func (pg Polygon) ContainsPoint(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	// Boundary check first so points exactly on an edge are included.
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if (Segment{A: pg[i], B: pg[j]}).DistanceToPoint(p) < 1e-9 {
			return true
		}
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := pg[i], pg[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xCross := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// IntersectsRect reports whether the polygon and rectangle overlap. The test
// is conservative and exact for the convex/rectangular shapes used by the
// synthetic sources: it checks containment in either direction and edge
// crossings.
func (pg Polygon) IntersectsRect(r Rect) bool {
	if len(pg) == 0 || r.IsEmpty() {
		return false
	}
	if !pg.Bounds().Intersects(r) {
		return false
	}
	// Any polygon vertex inside the rectangle.
	for _, v := range pg {
		if r.ContainsPoint(v) {
			return true
		}
	}
	// Any rectangle corner inside the polygon.
	corners := []Point{r.Min, {r.Max.X, r.Min.Y}, r.Max, {r.Min.X, r.Max.Y}}
	for _, c := range corners {
		if pg.ContainsPoint(c) {
			return true
		}
	}
	// Any edge crossing.
	rectEdges := []Segment{
		{A: corners[0], B: corners[1]}, {A: corners[1], B: corners[2]},
		{A: corners[2], B: corners[3]}, {A: corners[3], B: corners[0]},
	}
	for i := 0; i < len(pg); i++ {
		e := Segment{A: pg[i], B: pg[(i+1)%len(pg)]}
		for _, re := range rectEdges {
			if SegmentsIntersect(e, re) {
				return true
			}
		}
	}
	return false
}

// SegmentsIntersect reports whether the two segments share at least one point.
func SegmentsIntersect(s1, s2 Segment) bool {
	d1 := direction(s2.A, s2.B, s1.A)
	d2 := direction(s2.A, s2.B, s1.B)
	d3 := direction(s1.A, s1.B, s2.A)
	d4 := direction(s1.A, s1.B, s2.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(s2.A, s2.B, s1.A):
		return true
	case d2 == 0 && onSegment(s2.A, s2.B, s1.B):
		return true
	case d3 == 0 && onSegment(s1.A, s1.B, s2.A):
		return true
	case d4 == 0 && onSegment(s1.A, s1.B, s2.B):
		return true
	}
	return false
}

func direction(a, b, c Point) float64 { return c.Sub(a).Cross(b.Sub(a)) }

func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// RegularPolygon returns an n-vertex regular polygon of the given radius
// centred at c; it is used by the synthetic region generators.
func RegularPolygon(c Point, radius float64, n int) Polygon {
	if n < 3 {
		n = 3
	}
	pg := make(Polygon, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pg[i] = Point{c.X + radius*math.Cos(a), c.Y + radius*math.Sin(a)}
	}
	return pg
}
