package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointVectorOps(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, 2)
	if got := p.Add(q); got != Pt(4, 6) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(2, 2) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 11 {
		t.Fatalf("Dot = %v", got)
	}
	if got := p.Cross(q); got != 2 {
		t.Fatalf("Cross = %v", got)
	}
}

func TestPointDistance(t *testing.T) {
	if d := Pt(0, 0).DistanceTo(Pt(3, 4)); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if !Pt(1, 1).Equal(Pt(1+1e-12, 1), 1e-9) {
		t.Fatal("Equal with eps should hold")
	}
	if Pt(1, 1).Equal(Pt(2, 1), 1e-9) {
		t.Fatal("Equal should fail for distinct points")
	}
}

func TestLerp(t *testing.T) {
	p := Pt(0, 0).Lerp(Pt(10, 20), 0.5)
	if p != Pt(5, 10) {
		t.Fatalf("Lerp midpoint = %v", p)
	}
	if got := Pt(1, 1).Lerp(Pt(3, 3), 0); got != Pt(1, 1) {
		t.Fatalf("Lerp t=0 = %v", got)
	}
	if got := Pt(1, 1).Lerp(Pt(3, 3), 1); got != Pt(3, 3) {
		t.Fatalf("Lerp t=1 = %v", got)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		q      Point
		want   Point
		wantT  float64
		wantDP float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5, 3},
		{Pt(-4, 3), Pt(0, 0), 0, 5},
		{Pt(14, 3), Pt(10, 0), 1, 5},
		{Pt(0, 0), Pt(0, 0), 0, 0},
	}
	for _, c := range cases {
		cp, tt := s.ClosestPoint(c.q)
		if !cp.Equal(c.want, 1e-9) || !almostEqual(tt, c.wantT, 1e-9) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", c.q, cp, tt, c.want, c.wantT)
		}
		if d := s.DistanceToPoint(c.q); !almostEqual(d, c.wantDP, 1e-9) {
			t.Errorf("DistanceToPoint(%v) = %v want %v", c.q, d, c.wantDP)
		}
	}
}

func TestSegmentDegenerateAndHelpers(t *testing.T) {
	s := Seg(Pt(2, 2), Pt(2, 2))
	if d := s.DistanceToPoint(Pt(5, 6)); !almostEqual(d, 5, 1e-9) {
		t.Fatalf("degenerate segment distance = %v", d)
	}
	s2 := Seg(Pt(0, 0), Pt(4, 3))
	if !almostEqual(s2.Length(), 5, 1e-9) {
		t.Fatalf("Length = %v", s2.Length())
	}
	b := s2.Bounds()
	if b.Min != Pt(0, 0) || b.Max != Pt(4, 3) {
		t.Fatalf("Bounds = %+v", b)
	}
}

// Property: Eq. 1 point-segment distance never exceeds the distance to
// either endpoint and is never negative.
func TestSegmentDistanceProperty(t *testing.T) {
	f := func(ax, ay, bx, by, qx, qy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1000) }
		s := Seg(Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)))
		q := Pt(clamp(qx), clamp(qy))
		d := s.DistanceToPoint(q)
		return d >= 0 && d <= q.DistanceTo(s.A)+1e-9 && d <= q.DistanceTo(s.B)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 5), Pt(0, 1))
	if r.Min != Pt(0, 1) || r.Max != Pt(4, 5) {
		t.Fatalf("NewRect normalisation failed: %+v", r)
	}
	if r.Width() != 4 || r.Height() != 4 {
		t.Fatalf("dimensions wrong: %+v", r)
	}
	if r.Center() != Pt(2, 3) {
		t.Fatalf("Center = %v", r.Center())
	}
	if !r.ContainsPoint(Pt(2, 3)) || r.ContainsPoint(Pt(5, 3)) {
		t.Fatal("ContainsPoint wrong")
	}
	if !r.ContainsPoint(Pt(0, 1)) {
		t.Fatal("boundary point should be contained")
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Fatal("empty rect should have zero dimensions")
	}
	r := NewRect(Pt(0, 0), Pt(1, 1))
	if got := e.Union(r); got != r {
		t.Fatalf("empty union identity failed: %+v", got)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("union with empty failed: %+v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Fatal("empty rect should intersect nothing")
	}
	if e.ContainsPoint(r.Center()) {
		t.Fatal("empty rect should contain no point")
	}
}

func TestRectIntersectionUnion(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(4, 4))
	b := NewRect(Pt(2, 2), Pt(6, 6))
	in := a.Intersection(b)
	if in.Min != Pt(2, 2) || in.Max != Pt(4, 4) {
		t.Fatalf("Intersection = %+v", in)
	}
	u := a.Union(b)
	if u.Min != Pt(0, 0) || u.Max != Pt(6, 6) {
		t.Fatalf("Union = %+v", u)
	}
	c := NewRect(Pt(10, 10), Pt(11, 11))
	if !a.Intersection(c).IsEmpty() {
		t.Fatal("disjoint intersection should be empty")
	}
}

func TestRectContainsAndDistance(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	b := NewRect(Pt(2, 2), Pt(3, 3))
	if !a.ContainsPoint(b.Min) || !a.ContainsPoint(b.Max) || b.ContainsPoint(a.Max) {
		t.Fatal("ContainsPoint wrong")
	}
	if d := a.DistanceToPoint(Pt(5, 5)); d != 0 {
		t.Fatalf("inside distance = %v", d)
	}
	if d := a.DistanceToPoint(Pt(13, 14)); !almostEqual(d, 5, 1e-9) {
		t.Fatalf("outside distance = %v", d)
	}
	exp := a.Expand(2)
	if exp.Min != Pt(-2, -2) || exp.Max != Pt(12, 12) {
		t.Fatalf("Expand = %+v", exp)
	}
	ra := RectAround(Pt(1, 1), 3)
	if ra.Min != Pt(-2, -2) || ra.Max != Pt(4, 4) {
		t.Fatalf("RectAround = %+v", ra)
	}
}

// Property: union is commutative and contains both operands.
func TestRectUnionProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		m := func(v float64) float64 { return math.Mod(v, 1e6) }
		r1 := NewRect(Pt(m(ax), m(ay)), Pt(m(bx), m(by)))
		r2 := NewRect(Pt(m(cx), m(cy)), Pt(m(dx), m(dy)))
		u := r1.Union(r2)
		return u == r2.Union(r1) &&
			u.ContainsPoint(r1.Min) && u.ContainsPoint(r1.Max) &&
			u.ContainsPoint(r2.Min) && u.ContainsPoint(r2.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsOfAndCentroid(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(3, 5), Pt(-2, 0)}
	b := BoundsOf(pts)
	if b.Min != Pt(-2, 0) || b.Max != Pt(3, 5) {
		t.Fatalf("BoundsOf = %+v", b)
	}
	c := Centroid(pts)
	if !c.Equal(Pt(2.0/3.0, 2), 1e-9) {
		t.Fatalf("Centroid = %v", c)
	}
	if !BoundsOf(nil).IsEmpty() {
		t.Fatal("BoundsOf(nil) should be empty")
	}
	if Centroid(nil) != Pt(0, 0) {
		t.Fatal("Centroid(nil) should be origin")
	}
}

func TestPolygonContains(t *testing.T) {
	square := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}
	if !square.ContainsPoint(Pt(2, 2)) {
		t.Fatal("interior point should be inside")
	}
	if square.ContainsPoint(Pt(5, 2)) {
		t.Fatal("exterior point should be outside")
	}
	if !square.ContainsPoint(Pt(0, 2)) {
		t.Fatal("boundary point should count as inside")
	}
	tri := Polygon{Pt(0, 0), Pt(6, 0), Pt(0, 6)}
	if !tri.ContainsPoint(Pt(2, 2)) || tri.ContainsPoint(Pt(4, 4)) {
		t.Fatal("triangle containment wrong")
	}
	if (Polygon{Pt(0, 0), Pt(1, 1)}).ContainsPoint(Pt(0, 0)) {
		t.Fatal("degenerate polygon should contain nothing")
	}
}

func TestPolygonIntersectsRect(t *testing.T) {
	square := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}
	if !square.IntersectsRect(NewRect(Pt(3, 3), Pt(6, 6))) {
		t.Fatal("overlapping rect should intersect")
	}
	if square.IntersectsRect(NewRect(Pt(10, 10), Pt(12, 12))) {
		t.Fatal("far rect should not intersect")
	}
	// Rect fully inside polygon.
	if !square.IntersectsRect(NewRect(Pt(1, 1), Pt(2, 2))) {
		t.Fatal("contained rect should intersect")
	}
	// Polygon fully inside rect.
	if !square.IntersectsRect(NewRect(Pt(-10, -10), Pt(10, 10))) {
		t.Fatal("containing rect should intersect")
	}
	// Edge crossing with no vertices inside.
	thin := Polygon{Pt(-1, 1), Pt(5, 1), Pt(5, 2), Pt(-1, 2)}
	if !thin.IntersectsRect(NewRect(Pt(1, -5), Pt(2, 5))) {
		t.Fatal("edge-crossing shapes should intersect")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	if !SegmentsIntersect(Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0))) {
		t.Fatal("crossing segments")
	}
	if SegmentsIntersect(Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1))) {
		t.Fatal("parallel segments should not intersect")
	}
	if !SegmentsIntersect(Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 1))) {
		t.Fatal("touching segments should intersect")
	}
	if !SegmentsIntersect(Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(1, 0), Pt(3, 0))) {
		t.Fatal("collinear overlapping segments should intersect")
	}
}

func TestRegularPolygon(t *testing.T) {
	hex := RegularPolygon(Pt(10, 10), 5, 6)
	if len(hex) != 6 {
		t.Fatalf("len = %d", len(hex))
	}
	for _, v := range hex {
		if !almostEqual(v.DistanceTo(Pt(10, 10)), 5, 1e-9) {
			t.Fatalf("vertex %v not at radius 5", v)
		}
	}
	if !hex.ContainsPoint(Pt(10, 10)) {
		t.Fatal("centre should be inside")
	}
	if got := RegularPolygon(Pt(0, 0), 1, 2); len(got) != 3 {
		t.Fatalf("degenerate n should clamp to 3, got %d", len(got))
	}
}
