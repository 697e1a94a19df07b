package store

import (
	"errors"
	"sort"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
)

// The cold tier: the store's tables can be split LSM-style into a mutable
// heap-resident tail and an immutable frozen prefix that lives in on-disk
// segments (internal/segment). Each key's frozen prefix is tracked per shard
// as a count (records, episodes, tuples); positions below the count resolve
// through the attached ColdTier, positions at or above it resolve against
// the heap tail. A raw trajectory is only a range over its object's record
// run, so it stays listed in its stripe once frozen and reads its records
// through the run like any other reader. Indexes, mutation Start
// fields and TupleRefs all stay logical — base + heap offset — so the query
// engine and the WAL replay arithmetic are oblivious to where a tuple
// physically lives.
//
// A segment run changes the frozen state by one rule, advance (freeze.go):
// a live freeze's commit applies it to each run it wrote, after evicting the
// captured heap prefix, and recovery applies it to each run of the segment
// directory, in segment order, through RecoverRun.
//
// Annotation merges that target a frozen tuple cannot change the immutable
// segment, so the merged tuple lands in a small per-shard overlay (position
// → merged tuple) consulted before the cold tier on every read. Like the
// heap tail, a key's overlay map is replaced, never written, once readers
// can see it. Overlay entries are written out as merge frames at the next
// freeze; recovery merges each frame back through the live merge path.

// ColdTier is the read side of the frozen half of a tiered store,
// implemented by internal/segment. All methods must be safe for concurrent
// use. The store calls Invalidate* while holding the key's stripe lock, so
// implementations must not call back into the store from them; Visit
// methods must not hold tier-internal locks across fn callbacks (fn may
// take stripe locks). The keyed readers read a position only from the run
// that holds it; when that run cannot be read, ColdTuplesAt leaves its
// positions unresolved, and the appending readers stop there, so the i-th
// element they append is always the one at position from+i.
type ColdTier interface {
	// ColdRecords appends the frozen records of an object at positions
	// [from, to), in position order, to buf.
	ColdRecords(objectID string, from, to int, buf []gps.Record) []gps.Record
	// ColdEpisodes appends the frozen episodes of a trajectory to buf.
	ColdEpisodes(trajectoryID string, buf []*episode.Episode) []*episode.Episode
	// ColdTuples appends the frozen tuples of (trajectory, interpretation)
	// at positions [from, to), in position order, to buf.
	ColdTuples(trajectoryID, interpretation string, from, to int, buf []core.EpisodeTuple) []core.EpisodeTuple
	// ColdTuplesAt resolves the frozen positions of (trajectory,
	// interpretation) that ok leaves unresolved: for every i with !ok[i]
	// and 0 ≤ at[i] < base it sets tuples[i] to the tuple at position at[i]
	// and ok[i] to true.
	ColdTuplesAt(trajectoryID, interpretation string, at []int, base int, tuples []core.EpisodeTuple, ok []bool)

	// InvalidateTuples drops the live runs of (trajectory, interpretation):
	// a whole-sequence replace superseded the frozen content, and segment
	// scans must stop emitting it.
	InvalidateTuples(trajectoryID, interpretation string)

	// ColdSegments reports the number of live segments; Summaries appends
	// one summary per segment (indexed like VisitSegmentTuples's seg).
	ColdSegments() int
	Summaries(buf []SegmentSummary) []SegmentSummary
	// VisitSegmentTuples calls fn, run by run, for the live frozen tuples of
	// one segment (every interpretation when interpretation is empty), with
	// their logical refs. Before it decodes a run it asks below for the
	// bound of the run's key, and reads only the run's positions under it:
	// a run that starts at or above its bound is not decoded, nor is a run
	// whose kinds and span read.Keep refuses (see TupleFilter), for which
	// below is not asked. Of those it reads it calls fn for the tuples
	// read.Keep admits, built as read.Project says: a projected read takes
	// a run's tuples from its column frame and never decodes its data
	// frame. It reports false when fn stopped the visit early.
	VisitSegmentTuples(seg int, interpretation string, read TupleRead, below func(traj, interp string) int, fn func(ref TupleRef, t *core.EpisodeTuple) bool) bool
}

// TupleFilter is the part of a query's tuple check a segment scan applies
// while it decodes: whether a tuple of kind, entered at timeIn and left at
// timeOut, may match. A tuple it refuses is never built. The filter is
// exact under the merge overlay, because a merge (EpisodeTuple.Merged)
// never changes a tuple's kind or times.
//
// A filter must be monotone in the times: if it admits (kind, in, out), it
// admits (kind, in', out') for every in' at or before in and out' at or
// after out, the zero time being the least. A scan relies on it to skip a
// whole run unread when the filter refuses the run's span — its least
// TimeIn and greatest TimeOut — for every kind the run holds. The query
// form's clauses (TimeOut at or after lo, TimeIn at or before hi) are
// monotone.
type TupleFilter func(kind episode.Kind, timeIn, timeOut time.Time) bool

// MayHold reports whether tuples of which stops are stops and moves are
// moves, spanning [min, max] (least TimeIn, greatest TimeOut), may include
// one keep admits; every set may when keep is nil. keep is monotone in the
// times, so asking it of the span once per kind held refuses only sets
// holding no admitted tuple. A segment holds stops and moves alone: its
// decoder refuses any other kind.
func (keep TupleFilter) MayHold(stops, moves int, min, max time.Time) bool {
	return keep == nil ||
		stops > 0 && keep(episode.Stop, min, max) ||
		moves > 0 && keep(episode.Move, min, max)
}

// TupleRead is what a segment scan asks of the cold tier: the tuples to
// build (those Keep admits, every one when it is nil) and, of those, the
// fields (Project's, every one when it is nil). The zero value is the full
// read, which decodes each run's data frame; a projected read is served
// from the runs' column frames alone (internal/segment).
type TupleRead struct {
	Keep    TupleFilter
	Project *Projection
}

// Projection names the fields a projected read builds beside a tuple's
// kind and times: the place's id alone (Place) and the annotations of the
// listed keys, with their values (AnnKeys). Nothing else is built: no
// episode, confidence, source, or place name, category or extent. A
// projected tuple reads like the full one through PlaceID,
// Annotations.Value of a listed key, Kind, TimeIn and TimeOut; it lives in
// memory the tier reuses, so it is valid only during the visit's callback.
// The merge overlay still replaces a merged position's tuple with the
// whole merged one.
type Projection struct {
	Place   bool
	AnnKeys []string
}

// SegmentSummary is what a segment's run directory tells of its tuples as
// a whole: enough to decide, without reading a frame, that no tuple inside
// can match a query. The segment tier derives it from the directory's tuple
// runs (their interpretations, counts, stop counts and spans), so it is the
// union of what the runs tell and refutes a segment exactly when every one
// of its runs is refuted.
type SegmentSummary struct {
	// Tuples counts tuples per interpretation.
	Tuples map[string]int
	// Stops and Moves count the segment's tuples by kind.
	Stops, Moves int
	// TimeMin is the least TimeIn and TimeMax the greatest TimeOut across
	// the segment's tuples; a zero TimeIn is the least, so a segment holding
	// untimed tuples is never pruned by an upper bound.
	TimeMin, TimeMax time.Time
}

// MayHold reports whether the segment may hold a tuple keep admits (see
// TupleFilter.MayHold).
func (s *SegmentSummary) MayHold(keep TupleFilter) bool {
	return keep.MayHold(s.Stops, s.Moves, s.TimeMin, s.TimeMax)
}

// coldHolder wraps the attached tier for the atomic pointer.
type coldHolder struct{ tier ColdTier }

// coldTier returns the attached cold tier, or nil.
func (s *Store) coldTier() ColdTier {
	if h := s.cold.Load(); h != nil {
		return h.tier
	}
	return nil
}

// Tiered reports whether a cold tier is attached.
func (s *Store) Tiered() bool { return s.coldTier() != nil }

// InstallColdTier attaches a cold tier to a fresh store. Segment recovery
// attaches it before it re-commits the tier's runs (RecoverRun) and before
// the WAL tail replays; counts, listings and reads below each key's frozen
// base then resolve through the tier.
func (s *Store) InstallColdTier(ct ColdTier) error {
	if ct == nil {
		return errors.New("store: nil cold tier")
	}
	if s.coldTier() != nil {
		return errors.New("store: cold tier already installed")
	}
	s.cold.Store(&coldHolder{tier: ct})
	return nil
}

// ColdSegmentCount reports the attached tier's live segment count (0
// untiered) — the extra scan units a parallel full scan fans out over.
func (s *Store) ColdSegmentCount() int {
	ct := s.coldTier()
	if ct == nil {
		return 0
	}
	return ct.ColdSegments()
}

// ColdSummaries appends the attached tier's per-segment summaries to
// buf, indexed like VisitColdSegmentTuples's seg.
func (s *Store) ColdSummaries(buf []SegmentSummary) []SegmentSummary {
	ct := s.coldTier()
	if ct == nil {
		return buf
	}
	return ct.Summaries(buf)
}

// VisitColdSegmentTuples calls fn for every frozen tuple of one cold
// segment that a cut taken now reads from it, with the merge overlay
// applied — the cold counterpart of Cut.VisitShard. It reports false
// when fn stopped the visit early.
func (s *Store) VisitColdSegmentTuples(seg int, interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) bool {
	var c Cut
	s.TakeCut(interpretation, &c)
	return s.NewSegmentVisitor(&c, TupleRead{}, func(ref TupleRef, t *core.EpisodeTuple) bool {
		return fn(ref, *t)
	}).Visit(seg)
}

// SegmentVisitor visits cold segments through one cut, one segment per
// Visit: a parallel scan's per-segment work unit. A worker builds one and
// visits every segment it is handed with it, so a visit allocates nothing
// of its own. It is not safe for concurrent use.
type SegmentVisitor struct {
	st   *Store
	c    *Cut
	read TupleRead
	fn   func(ref TupleRef, t *core.EpisodeTuple) bool
	// v is the cut's view of the key whose run the tier is visiting.
	v *keyView
	// below and overlay are the tier's callbacks, bound once.
	below   func(traj, interp string) int
	overlay func(ref TupleRef, t *core.EpisodeTuple) bool
}

// NewSegmentVisitor returns a visitor that calls fn for every tuple of a
// cold segment that the cut reads from it (see Cut) and read keeps, built
// as read projects it, with the overlay of the cut's view of its key
// applied. The tier skips the tuples read refuses while decoding, and the
// overlay cannot turn a refused tuple into an admitted one (see
// TupleFilter). fn must not keep t past its return when read projects.
func (s *Store) NewSegmentVisitor(c *Cut, read TupleRead, fn func(ref TupleRef, t *core.EpisodeTuple) bool) *SegmentVisitor {
	sv := &SegmentVisitor{st: s, c: c, read: read, fn: fn}
	sv.below, sv.overlay = sv.base, sv.apply
	return sv
}

// Visit visits cold segment seg. It reports false when fn stopped the
// visit early.
func (sv *SegmentVisitor) Visit(seg int) bool {
	ct := sv.st.coldTier()
	if ct == nil {
		return true
	}
	return ct.VisitSegmentTuples(seg, sv.c.interp, sv.read, sv.below, sv.overlay)
}

// base is the cut's frozen base of a key, the bound the tier reads a run
// under, and selects the key's view for apply.
func (sv *SegmentVisitor) base(traj, interp string) int {
	if sv.v = sv.c.find(tupKey{traj, interp}); sv.v == nil {
		return 0
	}
	return sv.v.base
}

// apply hands fn the tuple at ref, or the overlay's tuple that stands in
// for it.
func (sv *SegmentVisitor) apply(ref TupleRef, t *core.EpisodeTuple) bool {
	if ov := sv.v.overlay[ref.Index]; ov != nil {
		t = ov
	}
	return sv.fn(ref, t)
}

// sortedTupleKeys returns a shard's structured keys in deterministic order.
// Caller holds the stripe lock.
func (sh *shard) sortedTupleKeys() []tupKey {
	keys := make([]tupKey, 0, len(sh.structured))
	for id, byInterp := range sh.structured {
		for interp := range byInterp {
			keys = append(keys, tupKey{id, interp})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].traj != keys[j].traj {
			return keys[i].traj < keys[j].traj
		}
		return keys[i].interp < keys[j].interp
	})
	return keys
}
