package query

import (
	"math"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/store"
)

// form is a Query compiled into its normal form: a conjunction of clauses,
// each a set membership or a half-bound, so that and — the conjunction of
// two forms — works clause by clause and is exact. It is the one reading of
// a query: the tuple check (admits) is exact, and the segment check
// (summaryAdmits), the planner and the index gathers only ever
// over-approximate it, since every candidate they let through ends at the
// tuple check. Per clause, its meaning on a tuple t stored at ref, and why
// the segment check and the gathers keep every tuple it admits:
//
//   - interp, object, traj: ref's fields equal them ("" admits any). A
//     segment's summary counts tuples per interpretation; every gather
//     reads interp's postings, and the trajectory and object-time paths
//     read all of traj's or object's.
//   - kinds: t.Kind is in the set, one bit per kind; kinds other than Move
//     and Stop, which the pipeline never stores, share one bit. The empty
//     set is the form's false. A summary counts its stops and moves, time
//     postings carry the kind, and the spatial index is split by it.
//   - lo, hi: t.TimeOut ≥ lo and t.TimeIn ≤ hi, open sides at the extreme
//     stamps; lo > hi admits the tuples spanning the gap. A summary's
//     TimeMin is its least TimeIn and TimeMax its greatest TimeOut, and the
//     kind and time clauses are monotone in the times (admitsSpan is a
//     store.TupleFilter), so asking them of the span per kind held refutes
//     only segments holding no admitted tuple; object postings are sorted
//     by TimeIn and carry TimeOut.
//   - anns: t's annotation key has value ("" asks that t lack the key); the
//     inverted index lists every tuple with a non-empty (key, value).
//   - rects, discs: t has an episode whose Bounds meets every rect and
//     whose Center lies within every disc. Center lies inside Bounds, so
//     Bounds also meets each disc's bounding box, and where all these
//     rectangles share a point Bounds meets their intersection too (per
//     axis, intervals that meet pairwise share a point: Helly's theorem in
//     one dimension). gather is that intersection when it is non-empty and
//     the smallest of the rectangles otherwise; the spatial forests index
//     Bounds.
//   - limit caps the results after the canonical sort; a conjunction has
//     none.
type form struct {
	interp, object, traj string
	kinds                kindSet
	lo, hi               stamp
	anns                 []annEq
	rects                []geo.Rect
	discs                []disc
	gather               geo.Rect
	limit                int
}

// kindSet is a set of episode kinds, one bit per member.
type kindSet uint8

const (
	moveKind  kindSet = 1 << episode.Move
	stopKind  kindSet = 1 << episode.Stop
	otherKind kindSet = 1 << 2 // every kind but Move and Stop
	allKinds          = moveKind | stopKind | otherKind
)

// kindBit is the member of k.
func kindBit(k episode.Kind) kindSet {
	if k == episode.Move || k == episode.Stop {
		return 1 << k
	}
	return otherKind
}

// The open sides of the time half-bounds: every stamp is at or after
// openLo and at or before openHi.
var (
	openLo = stamp{sec: math.MinInt64}
	openHi = stamp{sec: math.MaxInt64, nsec: 999999999}
)

// annEq is one annotation clause: key has value ("" for absent).
type annEq struct {
	key, value string
}

// disc is one radius clause: the episode centre lies within r of c.
type disc struct {
	c geo.Point
	r float64
}

// compile normalises, validates and compiles q. It is the one entry point
// of every query into the engine: Execute, Explain, the join sides and
// standing queries.
func compile(q Query) (form, error) {
	if err := q.Validate(); err != nil {
		return form{}, err
	}
	f := form{interp: q.Interpretation, object: q.ObjectID, traj: q.TrajectoryID,
		kinds: allKinds, lo: openLo, hi: openHi, limit: q.Limit}
	if f.interp == "" {
		f.interp = DefaultInterpretation
	}
	if q.Kind != nil {
		f.kinds = kindBit(*q.Kind)
	}
	if !q.From.IsZero() {
		f.lo = stampOf(q.From)
	}
	if !q.To.IsZero() {
		f.hi = stampOf(q.To)
	}
	if q.AnnKey != "" {
		f.anns = []annEq{{q.AnnKey, q.AnnValue}}
	}
	if q.Window != nil {
		f.rects = []geo.Rect{*q.Window}
	}
	if q.Near != nil {
		f.discs = []disc{{*q.Near, q.Radius}}
	}
	f.seal()
	return f, nil
}

// admits is the tuple check: whether the tuple tp stored at ref satisfies
// every clause. It is exact and allocates nothing.
func (f *form) admits(ref store.TupleRef, tp *core.EpisodeTuple) bool {
	return f.admitsRow(ref.TrajectoryID, ref.ObjectID, ref.Interpretation) && f.admitsTuple(tp)
}

// admitsRow is the tuple check's clauses on where a tuple is stored: its
// structured trajectory's id, object and interpretation.
func (f *form) admitsRow(traj, object, interp string) bool {
	return (f.interp == "" || interp == f.interp) &&
		(f.object == "" || object == f.object) &&
		(f.traj == "" || traj == f.traj)
}

// admitsTuple is the rest of the tuple check: the clauses on the tuple
// itself.
func (f *form) admitsTuple(tp *core.EpisodeTuple) bool {
	if !f.admitsSpan(tp.Kind, tp.TimeIn, tp.TimeOut) {
		return false
	}
	for i := range f.anns {
		if tp.Annotations.Value(f.anns[i].key) != f.anns[i].value {
			return false
		}
	}
	if !f.spatial() {
		return true
	}
	ep := tp.Episode
	if ep == nil {
		return false
	}
	for _, r := range f.rects {
		if !ep.Bounds.Intersects(r) {
			return false
		}
	}
	for _, d := range f.discs {
		if ep.Center.DistanceTo(d.c) > d.r {
			return false
		}
	}
	return true
}

// admitsKind is the tuple check's kind clause, as a store.TupleFilter.
func (f *form) admitsKind(kind episode.Kind, _, _ time.Time) bool {
	return f.kinds&kindBit(kind) != 0
}

// admitsSpan is the tuple check's kind and time clauses: whether a tuple of
// kind, entered at timeIn and left at timeOut, meets kinds, lo and hi. It is
// also the store.TupleFilter a segment scan decodes with.
func (f *form) admitsSpan(kind episode.Kind, timeIn, timeOut time.Time) bool {
	return f.kinds&kindBit(kind) != 0 && !stampOf(timeOut).before(f.lo) && !f.hi.before(stampOf(timeIn))
}

// summaryAdmits is the segment check: whether a segment whose summary is s
// may hold a tuple f admits. When it may not, rule names the refuting rule
// (one of obs.PruneRules). The kind and time rules ask s the question a
// scan asks of each run (store.TupleFilter.MayHold), first of the kinds
// alone.
func (f *form) summaryAdmits(s *store.SegmentSummary) (ok bool, rule string) {
	switch {
	case f.interp != "" && s.Tuples[f.interp] == 0:
		return false, "interpretation"
	case !s.MayHold(f.admitsKind):
		return false, "kind"
	case !s.MayHold(f.admitsSpan):
		return false, "time-span"
	}
	return true, ""
}

// spatial reports whether f has a spatial clause, and so a gather rectangle.
func (f *form) spatial() bool { return len(f.rects)+len(f.discs) > 0 }

// indexedAnn returns the annotation clause the inverted index can list: the
// first with a non-empty value.
func (f *form) indexedAnn() (annEq, bool) {
	for _, a := range f.anns {
		if a.value != "" {
			return a, true
		}
	}
	return annEq{}, false
}

// seal derives gather from the spatial clauses (see form).
func (f *form) seal() {
	n := len(f.rects) + len(f.discs)
	if n == 0 {
		return
	}
	rect := func(i int) geo.Rect {
		if i < len(f.rects) {
			return f.rects[i]
		}
		d := &f.discs[i-len(f.rects)]
		return geo.RectAround(d.c, d.r)
	}
	f.gather = rect(0)
	smallest := f.gather
	for i := 1; i < n; i++ {
		r := rect(i)
		f.gather = f.gather.Intersection(r)
		if r.Width()*r.Height() < smallest.Width()*smallest.Height() {
			smallest = r
		}
	}
	if f.gather.IsEmpty() {
		f.gather = smallest
	}
}

// and sets f to the conjunction of a and b, clause by clause, reusing f's
// slices; f must be neither a nor b. It is exact: f admits a tuple if and
// only if a and b both do. Where two clauses contradict, f's kind set is
// emptied.
func (f *form) and(a, b *form) {
	*f = form{kinds: a.kinds & b.kinds, lo: a.lo, hi: a.hi,
		anns:  append(f.anns[:0], a.anns...),
		rects: append(append(f.rects[:0], a.rects...), b.rects...),
		discs: append(f.discs[:0], a.discs...)}
	if f.lo.before(b.lo) {
		f.lo = b.lo
	}
	if b.hi.before(f.hi) {
		f.hi = b.hi
	}
	var ok [3]bool
	f.interp, ok[0] = meet(a.interp, b.interp)
	f.object, ok[1] = meet(a.object, b.object)
	f.traj, ok[2] = meet(a.traj, b.traj)
	if ok != [3]bool{true, true, true} {
		f.kinds = 0
	}
	for _, x := range b.anns {
		if f.addAnn(x) {
			f.kinds = 0
		}
	}
	for _, x := range b.discs {
		for _, d := range f.discs {
			// The slack keeps rounding in DistanceTo from declaring two
			// touching discs disjoint.
			if d.c.DistanceTo(x.c) > (d.r+x.r)*(1+1e-9) {
				f.kinds = 0 // no centre lies in both
			}
		}
		f.discs = append(f.discs, x)
	}
	f.seal()
}

// addAnn adds one annotation clause unless f already has it, and reports
// whether it contradicts one f has: the same key with another value.
func (f *form) addAnn(x annEq) (contradicts bool) {
	for _, a := range f.anns {
		if a.key == x.key {
			return a.value != x.value
		}
	}
	f.anns = append(f.anns, x)
	return false
}

// meet is the conjunction of two equality clauses on one field, "" admitting
// anything; ok is false when they contradict.
func meet(a, b string) (v string, ok bool) {
	if a == "" {
		return b, true
	}
	return a, b == "" || a == b
}
