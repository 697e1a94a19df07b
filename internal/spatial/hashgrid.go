package spatial

import (
	"math"
	"slices"

	"semitri/internal/geo"
)

// HashGrid is the mutable companion of the bulk-loaded STRTree: an
// incremental uniform grid whose buckets are keyed by cell coordinates in a
// hash map, so the covered domain is unbounded and grows with the data. It
// exists for the read side of live ingestion — the query engine, its only
// user, indexes stop/move geometry as episodes close, long before the final
// extent is known, which rules out the STR tree (it needs the full item set
// up front).
//
// The grid stores rectangles only. Insert numbers each one densely from 0 in
// insertion order and returns the number; the caller keeps whatever it
// associates with a rectangle in its own slice under that number, so no
// value is boxed per item. Each rectangle is stored once, and a bucket holds
// the int32 numbers of the rectangles overlapping it: replicating an item
// across the buckets it covers costs 4 B per covered bucket, and none of the
// grid's memory holds a pointer for the collector to trace. Items spanning
// more than oversizeCells cells go to a separate overflow list that every
// query scans, which guards against degenerate geometry.
//
// Visit answers exactly, reporting each intersecting item once (from the
// canonical covered cell, so no per-query dedup allocation), and
// EstimateWithin gives the planner an O(1) cardinality estimate.
//
// A HashGrid is NOT safe for concurrent use; callers guard it with their own
// lock (the query engine keeps its engine-wide grid behind an RWMutex).
type HashGrid struct {
	cellSize float64
	rects    []geo.Rect // by item number
	cells    map[hashCell][]int32
	oversize []int32
}

// hashCell addresses one bucket: the integer cell coordinates of the point
// (x/cellSize, y/cellSize), floor-rounded, over an unbounded domain.
type hashCell struct{ col, row int64 }

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
	return &HashGrid{cellSize: cellSize, cells: map[hashCell][]int32{}}
}

// Len returns the number of items inserted.
func (hg *HashGrid) Len() int { return len(hg.rects) }

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

// Insert adds a rectangle and returns its item number: Len() before the
// call. Inserting while a Visit traversal is in progress is not allowed (no
// internal locking).
func (hg *HashGrid) Insert(r geo.Rect) int32 {
	id := int32(len(hg.rects))
	hg.rects = append(hg.rects, r)
	if !(hg.cellSpan(r) <= oversizeCells) {
		hg.oversize = append(hg.oversize, id)
		return id
	}
	lo, hi := hg.cellRange(r)
	for col := lo.col; col <= hi.col; col++ {
		for row := lo.row; row <= hi.row; row++ {
			c := hashCell{col, row}
			hg.cells[c] = append(hg.cells[c], id)
		}
	}
	return id
}

// Visit calls fn with the number of every item whose rectangle intersects r,
// until fn returns false. An item replicated across several buckets is
// reported exactly once: from the lowest covered bucket that also lies in
// the query range (its canonical reporting cell), an O(1) test per
// encounter.
func (hg *HashGrid) Visit(r geo.Rect, fn func(id int32) bool) {
	if r.IsEmpty() || len(hg.rects) == 0 {
		return
	}
	qlo, qhi := hg.cellRange(r)
	// canonical reports whether bucket c is where item id is reported from.
	canonical := func(id int32, c hashCell) bool {
		ilo, _ := hg.cellRange(hg.rects[id])
		return c == hashCell{max(ilo.col, qlo.col), max(ilo.row, qlo.row)}
	}
	// A query window much larger than the data would walk mostly-empty
	// buckets; iterate the occupied buckets instead (sorted by item number
	// for a deterministic order — which mode runs is a deterministic
	// function of the query, so the contract holds).
	if !(hg.cellSpan(r) <= float64(len(hg.cells))) {
		var hits []int32
		for c, ids := range hg.cells {
			for _, id := range ids {
				if hg.rects[id].Intersects(r) && canonical(id, c) {
					hits = append(hits, id)
				}
			}
		}
		slices.Sort(hits)
		for _, id := range hits {
			if !fn(id) {
				return
			}
		}
	} else {
		for col := qlo.col; col <= qhi.col; col++ {
			for row := qlo.row; row <= qhi.row; row++ {
				c := hashCell{col, row}
				for _, id := range hg.cells[c] {
					if !hg.rects[id].Intersects(r) || !canonical(id, c) {
						continue // reported from the canonical cell instead
					}
					if !fn(id) {
						return
					}
				}
			}
		}
	}
	for _, id := range hg.oversize {
		if hg.rects[id].Intersects(r) && !fn(id) {
			return
		}
	}
}

// EstimateWithin returns an O(1) estimate of the number of items
// intersecting r, used by query planners to rank access paths without
// paying for the traversal: average bucket occupancy times the number of
// buckets r covers, clamped to the item count, plus the overflow list.
func (hg *HashGrid) EstimateWithin(r geo.Rect) int {
	n := len(hg.rects)
	if n == 0 || r.IsEmpty() {
		return 0
	}
	if len(hg.cells) == 0 {
		return len(hg.oversize)
	}
	perCell := float64(n-len(hg.oversize)) / float64(len(hg.cells))
	est := math.Ceil(perCell*hg.cellSpan(r)) + float64(len(hg.oversize))
	if !(est < float64(n)) {
		return n
	}
	return int(est)
}

// Footprint reports the capacities the grid's memory is made of: slots
// for rects rectangles (geo.Rect values), buckets occupied buckets (map
// entries keyed by cell, each holding an []int32 header), and slots for
// entries item numbers across the buckets and the overflow list. A caller
// multiplies them by entry sizes to size the grid without walking it twice.
func (hg *HashGrid) Footprint() (rects, buckets, entries int) {
	entries = cap(hg.oversize)
	for _, ids := range hg.cells {
		entries += cap(ids)
	}
	return cap(hg.rects), len(hg.cells), entries
}
