package spatial

import (
	"sort"

	"semitri/internal/geo"
)

// cursorSlackFactor sizes the inflation of a cached query relative to the
// requested radius. A query for radius d actually fetches d*(1+factor) and
// remains valid for any query point within d*factor of the cached centre:
// the annotation layers issue one candidate query per GPS record, and
// consecutive records of one object move a few metres to a few tens of
// metres, far less than half a candidate radius.
const cursorSlackFactor = 0.5

// Cursor caches the last WithinDistance query against an index to exploit
// the spatial locality of GPS streams: consecutive records of a moving
// object land near each other, so the candidate set barely changes between
// records. A hit is answered by filtering the cached (inflated) superset —
// a short slice scan — without touching the index.
//
// The cache is exact: the superset provably contains every item within the
// requested radius of any query point inside the slack disc (the rectangle
// distance is 1-Lipschitz in the query point), so cached and uncached
// answers are identical.
//
// A Cursor is not safe for concurrent use. Use one per moving object (the
// per-object streaming state of the pipeline makes this lock-free) and treat
// the returned slice as valid only until the next call.
type Cursor struct {
	ix   Index
	less func(a, b Item) bool

	valid  bool
	center geo.Point
	radius float64 // requested radius of the cached query
	slack  float64
	cached []Item // items within radius+slack of center, sorted by less
	out    []Item // scratch for the filtered answer

	hits, misses uint64
}

// NewCursor returns a locality cursor over ix.
func NewCursor(ix Index) *Cursor { return &Cursor{ix: ix} }

// NewCursorSorted returns a locality cursor whose answers are ordered by
// less. Sorting happens once per miss on the cached superset; hits inherit
// the order for free. The annotation layers use this to keep candidate
// ordering (and hence floating-point summation and tie-breaking) independent
// of the index's traversal order.
func NewCursorSorted(ix Index, less func(a, b Item) bool) *Cursor {
	return &Cursor{ix: ix, less: less}
}

// Index returns the index the cursor reads through.
func (c *Cursor) Index() Index { return c.ix }

// WithinDistance returns the items whose rectangle lies within dist of p,
// equal to WithinDistance(c.Index(), p, dist) up to ordering. The returned
// slice is reused by the next call.
func (c *Cursor) WithinDistance(p geo.Point, dist float64) []Item {
	if c.valid && dist == c.radius && p.DistanceTo(c.center) <= c.slack {
		c.hits++
	} else {
		c.misses++
		c.center = p
		c.radius = dist
		c.slack = cursorSlackFactor * dist
		c.cached = AppendWithinDistance(c.cached[:0], c.ix, p, dist+c.slack)
		if c.less != nil {
			sort.Slice(c.cached, func(i, j int) bool { return c.less(c.cached[i], c.cached[j]) })
		}
		c.valid = true
	}
	c.out = c.out[:0]
	distSq := dist * dist
	for _, it := range c.cached {
		if rectDistSq(it.Rect, p) <= distSq {
			c.out = append(c.out, it)
		}
	}
	return c.out
}

// Stats returns how many queries hit and missed the cache.
func (c *Cursor) Stats() (hits, misses uint64) { return c.hits, c.misses }
