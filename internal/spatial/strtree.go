package spatial

import (
	"container/heap"
	"math"
	"sort"

	"semitri/internal/geo"
)

// strFanout is the node capacity of the packed tree. STR packs nodes full,
// so the tree is as shallow as an R-tree of this fanout can be.
const strFanout = 16

// STRTree is an immutable R-tree bulk-loaded with the Sort-Tile-Recursive
// packing of Leutenegger, Lopez and Edgington (ICDE 1997): items are sorted
// by centre x, tiled into vertical slices, each slice sorted by centre y and
// packed into full leaves; the node levels are packed the same way. Compared
// to the incremental R*-tree it replaces, the bulk load is O(n log n) with
// no reinsertion passes, and the packed nodes give near-100% space
// utilisation and tight rectangles for read-only workloads — which is what
// the annotation layers have: sources are loaded once and queried forever.
type STRTree struct {
	root *strNode
	size int
}

type strNode struct {
	rect     geo.Rect
	items    []Item     // leaf payload (nil for inner nodes)
	children []*strNode // inner payload (nil for leaves)
}

func (n *strNode) leaf() bool { return n.children == nil }

// NewSTRTree bulk-loads a packed R-tree from items. The input slice is not
// retained or modified.
func NewSTRTree(items []Item) *STRTree {
	t := &STRTree{size: len(items)}
	if len(items) == 0 {
		t.root = &strNode{rect: geo.EmptyRect(), items: []Item{}}
		return t
	}
	nodes := packLeaves(items)
	for len(nodes) > 1 {
		nodes = packInner(nodes)
	}
	t.root = nodes[0]
	return t
}

// packLeaves tiles the items into full leaves: sort by centre x, cut into
// ceil(sqrt(P)) vertical slices of whole leaves, sort each slice by centre y
// and chunk.
func packLeaves(items []Item) []*strNode {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Rect.Center().X < sorted[j].Rect.Center().X
	})
	leafCount := (len(sorted) + strFanout - 1) / strFanout
	sliceLeaves := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceLeaves * strFanout
	out := make([]*strNode, 0, leafCount)
	for lo := 0; lo < len(sorted); lo += sliceSize {
		hi := lo + sliceSize
		if hi > len(sorted) {
			hi = len(sorted)
		}
		slice := sorted[lo:hi]
		sort.SliceStable(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for s := 0; s < len(slice); s += strFanout {
			e := s + strFanout
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &strNode{items: append([]Item(nil), slice[s:e]...)}
			r := geo.EmptyRect()
			for _, it := range leaf.items {
				r = r.Union(it.Rect)
			}
			leaf.rect = r
			out = append(out, leaf)
		}
	}
	return out
}

// packInner packs one level of nodes into parents with the same tiling.
func packInner(nodes []*strNode) []*strNode {
	sorted := append([]*strNode(nil), nodes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].rect.Center().X < sorted[j].rect.Center().X
	})
	parentCount := (len(sorted) + strFanout - 1) / strFanout
	sliceParents := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceParents * strFanout
	out := make([]*strNode, 0, parentCount)
	for lo := 0; lo < len(sorted); lo += sliceSize {
		hi := lo + sliceSize
		if hi > len(sorted) {
			hi = len(sorted)
		}
		slice := sorted[lo:hi]
		sort.SliceStable(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		for s := 0; s < len(slice); s += strFanout {
			e := s + strFanout
			if e > len(slice) {
				e = len(slice)
			}
			parent := &strNode{children: append([]*strNode(nil), slice[s:e]...)}
			r := geo.EmptyRect()
			for _, c := range parent.children {
				r = r.Union(c.rect)
			}
			parent.rect = r
			out = append(out, parent)
		}
	}
	return out
}

// Len implements Index.
func (t *STRTree) Len() int { return t.size }

// Bounds implements Index.
func (t *STRTree) Bounds() geo.Rect { return t.root.rect }

// Visit implements Index: depth-first range traversal.
func (t *STRTree) Visit(r geo.Rect, fn func(Item) bool) {
	t.visit(t.root, r, fn)
}

func (t *STRTree) visit(n *strNode, r geo.Rect, fn func(Item) bool) bool {
	if !n.rect.Intersects(r) {
		return true
	}
	if n.leaf() {
		for _, it := range n.items {
			if it.Rect.Intersects(r) && !fn(it) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.visit(c, r, fn) {
			return false
		}
	}
	return true
}

// strQueueEntry is a best-first queue element: either a node or a resolved item.
type strQueueEntry struct {
	dist float64
	node *strNode
	item *Item
}

type strQueue []strQueueEntry

func (q strQueue) Len() int           { return len(q) }
func (q strQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q strQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *strQueue) Push(x any)        { *q = append(*q, x.(strQueueEntry)) }
func (q *strQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// VisitNearest implements Index: classic best-first search over the tree,
// streaming items in non-decreasing rectangle distance to p.
func (t *STRTree) VisitNearest(p geo.Point, fn func(Item, float64) bool) {
	if t.size == 0 {
		return
	}
	q := &strQueue{{dist: t.root.rect.DistanceToPoint(p), node: t.root}}
	for q.Len() > 0 {
		e := heap.Pop(q).(strQueueEntry)
		if e.item != nil {
			if !fn(*e.item, e.dist) {
				return
			}
			continue
		}
		n := e.node
		if n.leaf() {
			for i := range n.items {
				it := &n.items[i]
				heap.Push(q, strQueueEntry{dist: it.Rect.DistanceToPoint(p), item: it})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(q, strQueueEntry{dist: c.rect.DistanceToPoint(p), node: c})
		}
	}
}
