package spatial

import (
	"container/heap"
	"math"
	"sort"

	"semitri/internal/geo"
)

// HashGrid is the mutable companion of the bulk-loaded indexes: an
// incremental uniform grid whose buckets are keyed by cell coordinates in a
// hash map, so the covered domain is unbounded and grows with the data. It
// exists for the read side of live ingestion — the query engine indexes
// stop/move geometry as episodes close, long before the final extent is
// known, which rules out the immutable STRTree/GridIndex (both need the full
// item set up front).
//
// Insert appends an item to every cell its rectangle overlaps; items
// spanning more than oversizeCells cells go to a separate overflow list that
// every query scans (episode rectangles are small, so the list stays empty
// in practice — it only guards correctness against degenerate geometry).
// Queries answer exactly, like every other Index: Visit reports each
// intersecting item once (from the canonical covered cell, so no per-query
// dedup allocation), and VisitNearest sweeps occupied cells in distance
// order with an item heap, emitting items in exact non-decreasing rectangle
// distance.
//
// A HashGrid is NOT safe for concurrent use; callers guard it with their own
// lock (the query engine keeps its engine-wide grid behind an RWMutex).
type HashGrid struct {
	cellSize float64
	cells    map[hashCell][]gridEntry
	oversize []gridEntry
	n        int
	nextID   int
	bounds   geo.Rect
}

// hashCell addresses one bucket: the integer cell coordinates of the point
// (x/cellSize, y/cellSize), floor-rounded, over an unbounded domain.
type hashCell struct{ col, row int64 }

// gridEntry is an item plus its insertion id, which disambiguates duplicate
// rectangles during the nearest sweep and makes multi-cell dedup cheap.
type gridEntry struct {
	item Item
	id   int
}

// oversizeCells is the covered-cell budget above which an item is stored in
// the overflow list instead of being replicated into every covered bucket.
const oversizeCells = 64

// NewHashGrid returns an empty incremental grid with the given cell size
// (metres; values <= 0 fall back to 250m, a neighbourhood-sized bucket for
// episode geometry).
func NewHashGrid(cellSize float64) *HashGrid {
	if cellSize <= 0 {
		cellSize = 250
	}
	return &HashGrid{cellSize: cellSize, cells: map[hashCell][]gridEntry{}}
}

// CellSize returns the bucket side length in metres.
func (hg *HashGrid) CellSize() float64 { return hg.cellSize }

// Len returns the number of items inserted.
func (hg *HashGrid) Len() int { return hg.n }

// Bounds returns the bounding rectangle of all inserted items (empty when
// Len == 0).
func (hg *HashGrid) Bounds() geo.Rect {
	if hg.n == 0 {
		return geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(-1, -1)}
	}
	return hg.bounds
}

// cellOf returns the bucket containing p.
func (hg *HashGrid) cellOf(p geo.Point) hashCell {
	return hashCell{
		col: int64(math.Floor(p.X / hg.cellSize)),
		row: int64(math.Floor(p.Y / hg.cellSize)),
	}
}

// cellRange returns the inclusive bucket range covered by r.
func (hg *HashGrid) cellRange(r geo.Rect) (lo, hi hashCell) {
	return hg.cellOf(r.Min), hg.cellOf(r.Max)
}

// cellSpan returns how many buckets r covers, computed in float64 so a huge
// rectangle cannot wrap the product negative (NaN for a NaN rectangle, which
// callers route to their exhaustive branch by testing !(span <= limit)).
func (hg *HashGrid) cellSpan(r geo.Rect) float64 {
	cols := math.Floor(r.Max.X/hg.cellSize) - math.Floor(r.Min.X/hg.cellSize) + 1
	rows := math.Floor(r.Max.Y/hg.cellSize) - math.Floor(r.Min.Y/hg.cellSize) + 1
	return cols * rows
}

// cellRect returns the extent of one bucket.
func (hg *HashGrid) cellRect(c hashCell) geo.Rect {
	return geo.Rect{
		Min: geo.Pt(float64(c.col)*hg.cellSize, float64(c.row)*hg.cellSize),
		Max: geo.Pt(float64(c.col+1)*hg.cellSize, float64(c.row+1)*hg.cellSize),
	}
}

// Insert adds an item. Inserting while a Visit/VisitNearest traversal is in
// progress is not allowed (no internal locking).
func (hg *HashGrid) Insert(it Item) {
	e := gridEntry{item: it, id: hg.nextID}
	hg.nextID++
	if hg.n == 0 {
		hg.bounds = it.Rect
	} else {
		hg.bounds = hg.bounds.Union(it.Rect)
	}
	hg.n++
	if !(hg.cellSpan(it.Rect) <= oversizeCells) {
		hg.oversize = append(hg.oversize, e)
		return
	}
	lo, hi := hg.cellRange(it.Rect)
	for col := lo.col; col <= hi.col; col++ {
		for row := lo.row; row <= hi.row; row++ {
			c := hashCell{col, row}
			hg.cells[c] = append(hg.cells[c], e)
		}
	}
}

// Visit calls fn for every item whose rectangle intersects r, until fn
// returns false. An item replicated across several buckets is reported
// exactly once: from the lowest covered bucket that also lies in the query
// range (its canonical reporting cell), an O(1) test per encounter.
func (hg *HashGrid) Visit(r geo.Rect, fn func(Item) bool) {
	if r.IsEmpty() || hg.n == 0 {
		return
	}
	qlo, qhi := hg.cellRange(r)
	// A query window much larger than the data would walk mostly-empty
	// buckets; iterate the occupied buckets instead (sorted by id for a
	// deterministic order — which mode runs is a deterministic function of
	// the query, so the contract holds).
	if !(hg.cellSpan(r) <= float64(len(hg.cells))) {
		var hits []gridEntry
		for c, entries := range hg.cells {
			for _, e := range entries {
				if !e.item.Rect.Intersects(r) {
					continue
				}
				if ilo, _ := hg.cellRange(e.item.Rect); c != (hashCell{maxInt64(ilo.col, qlo.col), maxInt64(ilo.row, qlo.row)}) {
					continue
				}
				hits = append(hits, e)
			}
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].id < hits[j].id })
		for _, e := range hits {
			if !fn(e.item) {
				return
			}
		}
	} else {
		for col := qlo.col; col <= qhi.col; col++ {
			for row := qlo.row; row <= qhi.row; row++ {
				for _, e := range hg.cells[hashCell{col, row}] {
					if !e.item.Rect.Intersects(r) {
						continue
					}
					ilo, _ := hg.cellRange(e.item.Rect)
					if col != maxInt64(ilo.col, qlo.col) || row != maxInt64(ilo.row, qlo.row) {
						continue // reported from the canonical cell instead
					}
					if !fn(e.item) {
						return
					}
				}
			}
		}
	}
	for _, e := range hg.oversize {
		if e.item.Rect.Intersects(r) && !fn(e.item) {
			return
		}
	}
}

// entryHeap orders entries by rectangle distance to the query point, ties by
// insertion id for determinism.
type entryHeap []entryDist

type entryDist struct {
	e    gridEntry
	dist float64
}

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].e.id < h[j].e.id
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(entryDist)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// VisitNearest calls fn for items in exact non-decreasing order of rectangle
// distance to p, until fn returns false or the items run out. The sweep
// sorts the occupied buckets by distance once (O(C log C) for C occupied
// buckets), then interleaves bucket expansion with an item heap: an item is
// emitted only once every unexpanded bucket is at least as far as it, which
// makes the order exact. Multi-bucket items enter the heap from their
// nearest covered bucket only.
func (hg *HashGrid) VisitNearest(p geo.Point, fn func(item Item, rectDist float64) bool) {
	if hg.n == 0 {
		return
	}
	type cellDist struct {
		c    hashCell
		dist float64
	}
	cells := make([]cellDist, 0, len(hg.cells))
	for c := range hg.cells {
		cells = append(cells, cellDist{c, hg.cellRect(c).DistanceToPoint(p)})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].dist != cells[j].dist {
			return cells[i].dist < cells[j].dist
		}
		if cells[i].c.col != cells[j].c.col {
			return cells[i].c.col < cells[j].c.col
		}
		return cells[i].c.row < cells[j].c.row
	})
	var pending entryHeap
	for _, e := range hg.oversize {
		heap.Push(&pending, entryDist{e, e.item.Rect.DistanceToPoint(p)})
	}
	next := 0
	for {
		// Expand buckets until the nearest unexpanded bucket cannot contain
		// anything closer than the nearest pending item.
		for next < len(cells) && (len(pending) == 0 || cells[next].dist <= pending[0].dist) {
			c := cells[next].c
			for _, e := range hg.cells[c] {
				ilo, ihi := hg.cellRange(e.item.Rect)
				nearest := hashCell{
					col: clampInt64(int64(math.Floor(p.X/hg.cellSize)), ilo.col, ihi.col),
					row: clampInt64(int64(math.Floor(p.Y/hg.cellSize)), ilo.row, ihi.row),
				}
				if nearest != c {
					continue // pushed when its nearest covered bucket expands
				}
				heap.Push(&pending, entryDist{e, e.item.Rect.DistanceToPoint(p)})
			}
			next++
		}
		if len(pending) == 0 {
			return
		}
		// The heap top is exact: the expansion loop above only stops once
		// every unexpanded bucket is farther away than it.
		ed := heap.Pop(&pending).(entryDist)
		if !fn(ed.e.item, ed.dist) {
			return
		}
	}
}

// EstimateWithin returns an O(1) estimate of the number of items
// intersecting r, used by query planners to rank access paths without
// paying for the traversal: average bucket occupancy times the number of
// buckets r covers, clamped to the item count, plus the overflow list.
func (hg *HashGrid) EstimateWithin(r geo.Rect) int {
	if hg.n == 0 || r.IsEmpty() {
		return 0
	}
	if len(hg.cells) == 0 {
		return len(hg.oversize)
	}
	perCell := float64(hg.n-len(hg.oversize)) / float64(len(hg.cells))
	est := math.Ceil(perCell*hg.cellSpan(r)) + float64(len(hg.oversize))
	if !(est < float64(hg.n)) {
		return hg.n
	}
	return int(est)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
