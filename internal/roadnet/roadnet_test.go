package roadnet

import (
	"math"
	"strings"
	"testing"

	"semitri/internal/geo"
	"semitri/internal/spatial"
)

// candidates returns the segments whose bounding box lies within radius of
// p, the candidateSegs(Q) of Alg. 2, as the line layer asks the index.
func candidates(n *Network, p geo.Point, radius float64) []*Segment {
	var out []*Segment
	for _, it := range spatial.WithinDistance(n.SpatialIndex(), p, radius) {
		out = append(out, it.Value.(*Segment))
	}
	return out
}

func TestClassStringsAndSpeeds(t *testing.T) {
	classes := []Class{Footpath, Residential, Arterial, Highway, MetroRail}
	names := map[Class]string{
		Footpath: "footpath", Residential: "residential", Arterial: "arterial",
		Highway: "highway", MetroRail: "metro",
	}
	for _, c := range classes {
		if c.String() != names[c] {
			t.Fatalf("String(%d) = %q", c, c.String())
		}
		if c.TypicalSpeed() <= 0 {
			t.Fatalf("TypicalSpeed(%v) = %v", c, c.TypicalSpeed())
		}
	}
	if Footpath.TypicalSpeed() >= Highway.TypicalSpeed() {
		t.Fatal("footpath should be slower than highway")
	}
	if !strings.HasPrefix(Class(99).String(), "class(") {
		t.Fatalf("unknown class string = %q", Class(99).String())
	}
	if Class(99).TypicalSpeed() <= 0 {
		t.Fatal("unknown class should still have a positive speed")
	}
}

// smallNetwork builds a 2x2 square: nodes 0..3 and four residential edges.
func smallNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	a := n.AddNode(geo.Pt(0, 0))
	b := n.AddNode(geo.Pt(100, 0))
	c := n.AddNode(geo.Pt(100, 100))
	d := n.AddNode(geo.Pt(0, 100))
	for _, e := range [][2]int{{a, b}, {b, c}, {c, d}, {d, a}} {
		if _, err := n.AddSegment(e[0], e[1], Residential, "s"); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestAddNodeSegmentValidation(t *testing.T) {
	n := NewNetwork()
	if n.NumNodes() != 0 || n.NumSegments() != 0 {
		t.Fatal("new network should be empty")
	}
	a := n.AddNode(geo.Pt(0, 0))
	b := n.AddNode(geo.Pt(10, 0))
	if _, err := n.AddSegment(a, 99, Residential, "x"); err == nil {
		t.Fatal("invalid node id should error")
	}
	if _, err := n.AddSegment(a, a, Residential, "x"); err == nil {
		t.Fatal("self loop should error")
	}
	seg, err := n.AddSegment(a, b, Arterial, "main")
	if err != nil {
		t.Fatal(err)
	}
	if seg.ID != 0 || seg.Length() != 10 || seg.Class != Arterial {
		t.Fatalf("segment = %+v", seg)
	}
	got, err := n.Segment(0)
	if err != nil || got != seg {
		t.Fatalf("Segment(0) = %v, %v", got, err)
	}
	if _, err := n.Segment(5); err == nil {
		t.Fatal("out of range segment should error")
	}
	if p, err := n.Node(a); err != nil || p != geo.Pt(0, 0) {
		t.Fatalf("Node = %v, %v", p, err)
	}
	if _, err := n.Node(-1); err == nil {
		t.Fatal("invalid node should error")
	}
	if len(n.Segments()) != 1 {
		t.Fatal("Segments() should return 1")
	}
}

func TestCandidateAndNearestSegments(t *testing.T) {
	n := smallNetwork(t)
	cands := candidates(n, geo.Pt(50, -5), 20)
	if len(cands) != 1 || cands[0].Geom.A.Y != 0 {
		t.Fatalf("candidates = %+v", cands)
	}
	// Larger radius picks up more.
	cands = candidates(n, geo.Pt(50, 50), 200)
	if len(cands) != 4 {
		t.Fatalf("wide candidates = %d", len(cands))
	}
	seg, d, ok := NearestSegmentIn(n.SpatialIndex(), geo.Pt(50, 10))
	if !ok || d != 10 {
		t.Fatalf("NearestSegmentIn = %v, %v, %v", seg, d, ok)
	}
	if seg.Geom.A.Y != 0 && seg.Geom.B.Y != 0 {
		t.Fatalf("nearest segment should be the bottom edge, got %+v", seg)
	}
	// Far point still resolves through radius expansion.
	_, d, ok = NearestSegmentIn(n.SpatialIndex(), geo.Pt(10000, 10000))
	if !ok || d <= 0 {
		t.Fatalf("far NearestSegmentIn = %v, %v", d, ok)
	}
	// Empty network.
	empty := NewNetwork()
	if _, _, ok := NearestSegmentIn(empty.SpatialIndex(), geo.Pt(0, 0)); ok {
		t.Fatal("nearest on empty network should be !ok")
	}
	if _, ok := empty.NearestNode(geo.Pt(0, 0)); ok {
		t.Fatal("nearest node on empty network should be !ok")
	}
	id, ok := n.NearestNode(geo.Pt(95, 8))
	if !ok || id != 1 {
		t.Fatalf("NearestNode = %d, %v", id, ok)
	}
}

// TestNearestSegmentTinyNetworks is the regression test for the removed
// full-scan fallback: the bulk-loaded spatial index must answer nearest and
// candidate queries exactly on 0- and 1-segment networks.
func TestNearestSegmentTinyNetworks(t *testing.T) {
	// 0 edges: every query is a clean miss, never a panic or a scan.
	empty := NewNetwork()
	if _, _, ok := NearestSegmentIn(empty.SpatialIndex(), geo.Pt(123, 456)); ok {
		t.Fatal("0-edge network: NearestSegmentIn should be !ok")
	}
	if cands := candidates(empty, geo.Pt(0, 0), 1e9); len(cands) != 0 {
		t.Fatalf("0-edge network: candidates = %d", len(cands))
	}
	if !empty.Bounds().IsEmpty() {
		t.Fatalf("0-edge network bounds = %+v", empty.Bounds())
	}

	// 1 edge: the only segment is the nearest from anywhere, with the exact
	// point-segment distance, even from very far away (the old radius-
	// doubling search needed its full scan exactly here).
	one := NewNetwork()
	a := one.AddNode(geo.Pt(0, 0))
	b := one.AddNode(geo.Pt(100, 0))
	seg, err := one.AddSegment(a, b, Residential, "only")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []geo.Point{
		geo.Pt(50, 10), geo.Pt(-40, -30), geo.Pt(1e7, 1e7), geo.Pt(50, 0),
	} {
		got, d, ok := NearestSegmentIn(one.SpatialIndex(), q)
		if !ok || got != seg {
			t.Fatalf("1-edge network: NearestSegmentIn(%v) = %v, %v", q, got, ok)
		}
		if want := seg.Geom.DistanceToPoint(q); d != want {
			t.Fatalf("1-edge network: dist(%v) = %v want %v", q, d, want)
		}
	}
	// Candidate radius smaller than the distance: empty set, no fallback.
	if cands := candidates(one, geo.Pt(500, 500), 10); len(cands) != 0 {
		t.Fatalf("out-of-radius candidates = %d", len(cands))
	}
}

// TestSpatialIndexInvalidation checks that mutating the network after a
// query rebuilds the index.
func TestSpatialIndexInvalidation(t *testing.T) {
	n := NewNetwork()
	a := n.AddNode(geo.Pt(0, 0))
	b := n.AddNode(geo.Pt(100, 0))
	if _, err := n.AddSegment(a, b, Residential, "first"); err != nil {
		t.Fatal(err)
	}
	if got := len(candidates(n, geo.Pt(50, 0), 10)); got != 1 {
		t.Fatalf("candidates before mutation = %d", got)
	}
	c := n.AddNode(geo.Pt(100, 5))
	d := n.AddNode(geo.Pt(0, 5))
	if _, err := n.AddSegment(c, d, Residential, "second"); err != nil {
		t.Fatal(err)
	}
	if got := len(candidates(n, geo.Pt(50, 2), 10)); got != 2 {
		t.Fatalf("candidates after mutation = %d", got)
	}
}

func TestShortestPathSquare(t *testing.T) {
	n := smallNetwork(t)
	r, err := n.ShortestPath(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Length-200) > 1e-9 {
		t.Fatalf("route length = %v, want 200", r.Length)
	}
	if len(r.Nodes) != 3 || len(r.Segments) != 2 {
		t.Fatalf("route = %+v", r)
	}
	if r.Nodes[0] != 0 || r.Nodes[len(r.Nodes)-1] != 2 {
		t.Fatalf("route endpoints = %v", r.Nodes)
	}
	// Same node.
	same, err := n.ShortestPath(1, 1, nil)
	if err != nil || len(same.Nodes) != 1 || same.Length != 0 {
		t.Fatalf("same-node route = %+v, %v", same, err)
	}
	if _, err := n.ShortestPath(-1, 2, nil); err == nil {
		t.Fatal("invalid endpoint should error")
	}
}

func TestShortestPathClassFilter(t *testing.T) {
	n := NewNetwork()
	a := n.AddNode(geo.Pt(0, 0))
	b := n.AddNode(geo.Pt(100, 0))
	c := n.AddNode(geo.Pt(200, 0))
	// Direct highway a->c plus a residential detour a->b->c.
	if _, err := n.AddSegment(a, c, Highway, "hw"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSegment(a, b, Residential, "r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSegment(b, c, Residential, "r2"); err != nil {
		t.Fatal(err)
	}
	// Unrestricted: takes the highway (single segment).
	r, err := n.ShortestPath(a, c, nil)
	if err != nil || len(r.Segments) != 1 {
		t.Fatalf("unrestricted route = %+v, %v", r, err)
	}
	// Restricted to non-highway: takes the detour.
	r, err = n.ShortestPath(a, c, func(cl Class) bool { return cl != Highway })
	if err != nil || len(r.Segments) != 2 {
		t.Fatalf("restricted route = %+v, %v", r, err)
	}
	// Impossible restriction.
	if _, err := n.ShortestPath(a, c, func(cl Class) bool { return cl == MetroRail }); err == nil {
		t.Fatal("unreachable route should error")
	}
}

func TestGenerateNetworkStructure(t *testing.T) {
	cfg := DefaultGeneratorConfig(7)
	n, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 21x21 lattice plus 21 metro nodes.
	if n.NumNodes() != 21*21+21 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
	if n.NumSegments() < 800 {
		t.Fatalf("NumSegments = %d, expected a dense grid", n.NumSegments())
	}
	// Class inventory: all five classes present.
	byClass := map[Class]int{}
	for _, s := range n.Segments() {
		byClass[s.Class]++
	}
	for _, c := range []Class{Footpath, Residential, Arterial, Highway, MetroRail} {
		if byClass[c] == 0 {
			t.Fatalf("generated network has no %v segments", c)
		}
	}
	if byClass[MetroRail] != 20 {
		t.Fatalf("metro segments = %d, want 20", byClass[MetroRail])
	}
	// Network is connected (street grid part): route between opposite corners.
	from, _ := n.NearestNode(geo.Pt(0, 0))
	to, _ := n.NearestNode(geo.Pt(10000, 10000))
	r, err := n.ShortestPath(from, to, func(c Class) bool { return c != MetroRail })
	if err != nil {
		t.Fatalf("corner-to-corner route: %v", err)
	}
	if r.Length < 10000 {
		t.Fatalf("route length = %v, too short for a 10km x 10km grid", r.Length)
	}
	// Determinism.
	n2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumSegments() != n.NumSegments() || n2.NumNodes() != n.NumNodes() {
		t.Fatal("generation not deterministic in size")
	}
	for i, s := range n.Segments() {
		if !n2.Segments()[i].Geom.A.Equal(s.Geom.A, 1e-12) {
			t.Fatal("generation not deterministic in geometry")
		}
	}
}

func TestGenerateOptionsAndErrors(t *testing.T) {
	cfg := DefaultGeneratorConfig(1)
	cfg.WithMetro = false
	cfg.WithHighway = false
	cfg.Extent = geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	n, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range n.Segments() {
		if s.Class == MetroRail || s.Class == Highway {
			t.Fatalf("disabled class %v present", s.Class)
		}
	}
	bad := cfg
	bad.BlockSize = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero block size should error")
	}
	bad = cfg
	bad.Extent = geo.EmptyRect()
	if _, err := Generate(bad); err == nil {
		t.Fatal("empty extent should error")
	}
	bad = cfg
	bad.Extent = geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	bad.BlockSize = 500
	if _, err := Generate(bad); err == nil {
		t.Fatal("extent smaller than one block should error")
	}
}

func TestBoundsCoverExtent(t *testing.T) {
	cfg := DefaultGeneratorConfig(3)
	n, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := n.Bounds()
	if b.Width() < 9000 || b.Height() < 9000 {
		t.Fatalf("network bounds too small: %+v", b)
	}
}
