package spatial

import (
	"container/heap"
	"math"

	"semitri/internal/geo"
)

// strFanout is the node capacity of the packed tree. STR packs nodes full,
// so the tree is as shallow as an R-tree of this fanout can be.
const strFanout = 16

// packedTree is a pointer-free Sort-Tile-Recursive packed R-tree
// (Leutenegger, Lopez and Edgington, ICDE 1997) over rectangle numbers, ids
// in leaf order. levels[0] holds the leaves, the last level the root, and a
// node's range indexes ids (leaves) or the level below. The owner keeps the
// rectangles: Forest by number, STRTree in leaf order without ids.
type packedTree struct {
	levels [][]packedNode
	ids    []int32
}

type packedNode struct {
	rect   geo.Rect
	lo, hi int32
}

// strOrder returns the STR packing order of the entries whose rectangles
// rect(0..n-1) returns: sorted by centre x, cut into ceil(sqrt(P)) vertical
// slices of whole nodes, each slice sorted by centre y. Consecutive runs of
// strFanout entries of the order form the nodes. Both sorts are stable, so
// ties keep the previous order: entry number, then x.
func strOrder(n int, rect func(i int) geo.Rect) []int32 {
	keys := make([]uint64, n)
	order := make([]int32, n)
	for i := range order {
		order[i], keys[i] = int32(i), sortKey(rect(i).Center().X)
	}
	radixSort(keys, order)
	sliceSize := int(math.Ceil(math.Sqrt(float64((n+strFanout-1)/strFanout)))) * strFanout
	for lo := 0; lo < n; lo += sliceSize {
		slice := order[lo:min(lo+sliceSize, n)]
		for _, o := range slice {
			keys[o] = sortKey(rect(int(o)).Center().Y)
		}
		radixSort(keys, slice)
	}
	return order
}

// sortKey maps a coordinate to an integer with the same order: -0 and +0
// alike, a NaN past the infinity of its sign.
func sortKey(c float64) uint64 {
	b := math.Float64bits(c + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort stably sorts entries by keys[entry]: by insertion when they
// are few, else least significant byte first, skipping bytes every key
// shares.
func radixSort(keys []uint64, entries []int32) {
	if len(entries) <= 96 {
		for i := 1; i < len(entries); i++ {
			for j := i; j > 0 && keys[entries[j]] < keys[entries[j-1]]; j-- {
				entries[j], entries[j-1] = entries[j-1], entries[j]
			}
		}
		return
	}
	tmp := make([]int32, len(entries))
	for shift := 0; shift < 64; shift += 8 {
		var count [256]int
		for _, e := range entries {
			count[byte(keys[e]>>shift)]++
		}
		if count[byte(keys[entries[0]]>>shift)] == len(entries) {
			continue
		}
		for b, sum := 0, 0; b < 256; b++ {
			count[b], sum = sum, sum+count[b]
		}
		for _, e := range entries {
			b := byte(keys[e] >> shift)
			tmp[count[b]] = e
			count[b]++
		}
		copy(entries, tmp)
	}
}

// unionValid grows r by s unless s is empty or NaN: such a rectangle
// intersects nothing, and a NaN would poison every bound above it.
func unionValid(r, s geo.Rect) geo.Rect {
	if !(s.Min.X <= s.Max.X && s.Min.Y <= s.Max.Y) {
		return r
	}
	return r.Union(s)
}

// packTree bulk-loads a packed tree over the rectangles numbered lo to
// hi-1, which rect returns.
func packTree(lo, hi int, rect func(id int32) geo.Rect) packedTree {
	ids := strOrder(hi-lo, func(i int) geo.Rect { return rect(int32(lo + i)) })
	for i := range ids {
		ids[i] += int32(lo)
	}
	t := packedTree{ids: ids}
	level := packLevel(len(ids), func(i int) geo.Rect { return rect(ids[i]) })
	for len(level) > 1 {
		below := make([]packedNode, len(level))
		for i, o := range strOrder(len(level), func(i int) geo.Rect { return level[i].rect }) {
			below[i] = level[o]
		}
		t.levels = append(t.levels, below)
		level = packLevel(len(below), func(i int) geo.Rect { return below[i].rect })
	}
	t.levels = append(t.levels, level)
	return t
}

// packLevel groups n entries, in order, into nodes of strFanout, each
// bounding its entries' rectangles; no entries make one empty node.
func packLevel(n int, rect func(i int) geo.Rect) []packedNode {
	level := make([]packedNode, 0, max(1, (n+strFanout-1)/strFanout))
	for lo := 0; lo < n || lo == 0; lo += strFanout {
		node := packedNode{rect: geo.EmptyRect(), lo: int32(lo), hi: int32(min(lo+strFanout, n))}
		for i := lo; i < int(node.hi); i++ {
			node.rect = unionValid(node.rect, rect(i))
		}
		level = append(level, node)
	}
	return level
}

// root returns the root node: the one node of the last level.
func (t *packedTree) root() *packedNode { return &t.levels[len(t.levels)-1][0] }

// visitLeaves calls fn with the id range of every leaf whose rectangle
// intersects r, depth first, until fn returns false; it reports whether
// the walk ran to the end.
func (t *packedTree) visitLeaves(r geo.Rect, fn func(lo, hi int32) bool) bool {
	return t.visitNode(len(t.levels)-1, 0, r, fn)
}

func (t *packedTree) visitNode(l int, i int32, r geo.Rect, fn func(lo, hi int32) bool) bool {
	n := &t.levels[l][i]
	if !n.rect.Intersects(r) {
		return true
	}
	if l == 0 {
		return fn(n.lo, n.hi)
	}
	for c := n.lo; c < n.hi; c++ {
		if !t.visitNode(l-1, c, r, fn) {
			return false
		}
	}
	return true
}

// STRTree is an immutable R-tree bulk-loaded with the Sort-Tile-Recursive
// packing: items are sorted by centre x, tiled into vertical slices, each
// slice sorted by centre y and packed into full leaves; the node levels are
// packed the same way. Compared to the incremental R*-tree it replaces, the
// bulk load is O(n log n) with no reinsertion passes, and the packed nodes
// give near-100% space utilisation and tight rectangles for read-only
// workloads — which is what the annotation layers have: sources are loaded
// once and queried forever. The items are stored in leaf order, so a leaf's
// range indexes them directly.
type STRTree struct {
	items []Item
	tree  packedTree
}

// NewSTRTree bulk-loads a packed R-tree from items. The input slice is not
// retained or modified.
func NewSTRTree(items []Item) *STRTree {
	t := &STRTree{tree: packTree(0, len(items), func(id int32) geo.Rect { return items[id].Rect })}
	t.items = make([]Item, len(items))
	for k, id := range t.tree.ids {
		t.items[k] = items[id]
	}
	t.tree.ids = nil
	return t
}

// Len implements Index.
func (t *STRTree) Len() int { return len(t.items) }

// Bounds implements Index.
func (t *STRTree) Bounds() geo.Rect { return t.tree.root().rect }

// Visit implements Index: depth-first range traversal.
func (t *STRTree) Visit(r geo.Rect, fn func(Item) bool) {
	t.tree.visitLeaves(r, func(lo, hi int32) bool {
		for i := range t.items[lo:hi] {
			if it := &t.items[int(lo)+i]; it.Rect.Intersects(r) && !fn(*it) {
				return false
			}
		}
		return true
	})
}

// strQueueEntry is a best-first queue element: node i of level l, or item
// i when l is -1.
type strQueueEntry struct {
	dist float64
	l    int
	i    int32
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
	if len(t.items) == 0 {
		return
	}
	top := len(t.tree.levels) - 1
	q := &strQueue{{dist: t.tree.root().rect.DistanceToPoint(p), l: top}}
	for q.Len() > 0 {
		e := heap.Pop(q).(strQueueEntry)
		if e.l < 0 {
			if !fn(t.items[e.i], e.dist) {
				return
			}
			continue
		}
		n := &t.tree.levels[e.l][e.i]
		if e.l == 0 {
			for i := n.lo; i < n.hi; i++ {
				heap.Push(q, strQueueEntry{dist: t.items[i].Rect.DistanceToPoint(p), l: -1, i: i})
			}
			continue
		}
		for c := n.lo; c < n.hi; c++ {
			heap.Push(q, strQueueEntry{dist: t.tree.levels[e.l-1][c].rect.DistanceToPoint(p), l: e.l - 1, i: c})
		}
	}
}
