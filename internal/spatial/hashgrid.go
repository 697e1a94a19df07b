package spatial

import (
	"math"
	"sort"

	"semitri/internal/geo"
)

// HashGrid is the mutable companion of the bulk-loaded STRTree: an
// incremental uniform grid whose buckets are keyed by cell coordinates in a
// hash map, so the covered domain is unbounded and grows with the data. It
// exists for the read side of live ingestion — the query engine indexes
// stop/move geometry as episodes close, long before the final extent is
// known, which rules out the STR tree (it needs the full item set up front).
//
// Insert appends an item to every cell its rectangle overlaps; items
// spanning more than oversizeCells cells go to a separate overflow list that
// every query scans (episode rectangles are small, so the list stays empty
// in practice — it only guards correctness against degenerate geometry).
// Visit answers exactly, reporting each intersecting item once (from the
// canonical covered cell, so no per-query dedup allocation), and
// EstimateWithin gives the planner an O(1) cardinality estimate.
//
// A HashGrid is NOT safe for concurrent use; callers guard it with their own
// lock (the query engine keeps its engine-wide grid behind an RWMutex).
type HashGrid struct {
	cellSize float64
	cells    map[hashCell][]gridEntry
	oversize []gridEntry
	n        int
	nextID   int
}

// hashCell addresses one bucket: the integer cell coordinates of the point
// (x/cellSize, y/cellSize), floor-rounded, over an unbounded domain.
type hashCell struct{ col, row int64 }

// gridEntry is an item plus its insertion id, which orders the hits of a
// whole-map Visit deterministically.
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

// Len returns the number of items inserted.
func (hg *HashGrid) Len() int { return hg.n }

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

// Insert adds an item. Inserting while a Visit traversal is in progress is
// not allowed (no internal locking).
func (hg *HashGrid) Insert(it Item) {
	e := gridEntry{item: it, id: hg.nextID}
	hg.nextID++
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
