package spatial

import (
	"unsafe"

	"semitri/internal/geo"
)

// forestBuffer is B, the number of rectangles a Forest scans linearly
// before it packs them into a tree.
const forestBuffer = 64

// Forest is the insertable companion of STRTree, Bentley and Saxe's
// static-to-dynamic transformation over packed STR trees: the query engine
// indexes episodes as they close, long before the final extent is known.
// Insert numbers rectangles densely from 0; the caller keeps what a number
// stands for in its own slice. The newest rectangles, fewer than B, form a
// buffer that queries scan. A full buffer is packed into a tree together
// with every tree no larger than the result, so tree sizes are B times
// distinct powers of two, each tree covers a contiguous run of numbers, and
// a query walks at most log2(n/B)+1 trees. Nothing in a forest is a pointer
// for the collector to trace. A Forest is NOT safe for concurrent use; the
// zero value is empty.
type Forest struct {
	rects []geo.Rect // by item number
	trees []packedTree
	// built is the first item number of the buffer: trees hold the rest.
	built int
}

// Len returns the number of rectangles inserted.
func (f *Forest) Len() int { return len(f.rects) }

// Insert adds a rectangle and returns its item number: Len() before the
// call. Inserting while a Visit traversal is in progress is not allowed.
func (f *Forest) Insert(r geo.Rect) int32 {
	id := int32(len(f.rects))
	f.rects = append(f.rects, r)
	if len(f.rects)-f.built < forestBuffer {
		return id
	}
	lo, keep := f.built, len(f.trees)
	for keep > 0 && len(f.trees[keep-1].ids) <= len(f.rects)-lo {
		keep--
		lo -= len(f.trees[keep].ids)
	}
	clear(f.trees[keep:])
	f.trees = append(f.trees[:keep], packTree(lo, len(f.rects), func(id int32) geo.Rect { return f.rects[id] }))
	f.built = len(f.rects)
	return id
}

// Visit calls fn with the number of every rectangle that intersects r,
// until fn returns false: tree by tree, then the buffer.
func (f *Forest) Visit(r geo.Rect, fn func(id int32) bool) {
	for i := range f.trees {
		t := &f.trees[i]
		if !t.visitLeaves(r, func(lo, hi int32) bool {
			for _, id := range t.ids[lo:hi] {
				if f.rects[id].Intersects(r) && !fn(id) {
					return false
				}
			}
			return true
		}) {
			return
		}
	}
	for id := f.built; id < len(f.rects); id++ {
		if f.rects[id].Intersects(r) && !fn(int32(id)) {
			return
		}
	}
}

// EstimateWithin bounds the number of rectangles intersecting r from above
// without reading a tree's rectangles: the entries of every leaf whose
// rectangle intersects r, plus the buffer's hits counted exactly. It never
// exceeds Len.
func (f *Forest) EstimateWithin(r geo.Rect) int {
	n := 0
	for i := range f.trees {
		f.trees[i].visitLeaves(r, func(lo, hi int32) bool {
			n += int(hi - lo)
			return true
		})
	}
	for _, br := range f.rects[f.built:] {
		if br.Intersects(r) {
			n++
		}
	}
	return n
}

// Footprint returns the bytes the forest's arrays hold.
func (f *Forest) Footprint() int {
	b := cap(f.rects)*int(unsafe.Sizeof(geo.Rect{})) + cap(f.trees)*int(unsafe.Sizeof(packedTree{}))
	for _, t := range f.trees {
		b += cap(t.ids)*4 + cap(t.levels)*int(unsafe.Sizeof([]packedNode(nil)))
		for _, l := range t.levels {
			b += cap(l) * int(unsafe.Sizeof(packedNode{}))
		}
	}
	return b
}
