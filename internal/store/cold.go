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
// implementations must not call back into the store from them;
// VisitTuples must not hold tier-internal locks across fn callbacks (fn
// may take stripe locks). Every reader reads a key's frozen positions from
// the key's committed runs, bounded by the base its view holds, and a
// position only from the run that holds it; when that run cannot be read,
// ColdTuplesAt leaves its positions unresolved, VisitTuples skips them,
// and the appending readers stop there, so the i-th element they append is
// always the one at position from+i.
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
	// VisitTuples calls fn, key by key and each key's in position order,
	// for the frozen tuples of each key at positions [0, Base) that
	// read.Keep admits, built as read.Project says, with their refs and
	// the key's Overlay applied. A run that starts at or past its key's
	// base is not decoded, nor is a run whose kinds and span read.Keep
	// refuses (see TupleFilter); a projected read takes a run's tuples
	// from its column frame and never decodes its data frame. It reports
	// false when fn stopped the visit early.
	VisitTuples(keys []FrozenKey, read TupleRead, fn func(ref TupleRef, t *core.EpisodeTuple) bool) bool

	// InvalidateTuples drops the live runs of (trajectory, interpretation):
	// a whole-sequence replace superseded the frozen content, and no read
	// may return it.
	InvalidateTuples(trajectoryID, interpretation string)

	// ColdSegments reports the number of live segments.
	ColdSegments() int
}

// FrozenKey is one structured key's frozen prefix as a view of it saw it:
// the positions [0, Base) of (TrajectoryID, Interpretation), which a scan
// reads from the cold tier, and the merge overlay, whose merged tuples
// stand in for the tier's at their positions. The overlay is never written
// once published, and it cannot turn a tuple a TupleFilter refuses into
// an admitted one.
type FrozenKey struct {
	TrajectoryID, Interpretation string
	Base                         int
	Overlay                      map[int]*core.EpisodeTuple
}

// TupleFilter is the part of a query's tuple check a cold scan applies
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

// TupleRead is what a cold scan asks of the cold tier: the tuples to
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
// untiered). It stays only for bench/ (with VisitColdSegmentTuples) until
// ROADMAP item 4 step A moves the benchmark off it; no scan reads by
// segment.
func (s *Store) ColdSegmentCount() int {
	ct := s.coldTier()
	if ct == nil {
		return 0
	}
	return ct.ColdSegments()
}

// VisitColdSegmentTuples calls fn for the frozen tuples, merge overlay
// applied, of the lock stripes seg, seg+n, seg+2n, … (n the segment count)
// that a cut taken now reads from the cold tier, so that the calls for seg
// = 0..ColdSegmentCount()-1 visit every frozen tuple of the interpretation
// exactly once. Frozen tuples are read by key, not by segment: the
// numbering only splits the visit. It stays only for bench/ until ROADMAP
// item 4 step A. It reports false when fn stopped the visit early.
func (s *Store) VisitColdSegmentTuples(seg int, interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) bool {
	n := s.ColdSegmentCount()
	if seg < 0 || seg >= n {
		return true
	}
	var c Cut
	s.TakeCut(interpretation, &c)
	visit := func(ref TupleRef, t *core.EpisodeTuple) bool { return fn(ref, *t) }
	for sh := seg; sh < len(s.shards); sh += n {
		if !c.visitFrozen(sh, TupleRead{}, visit) {
			return false
		}
	}
	return true
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
