// Package query is the read-side counterpart of the ingestion pipeline: a
// typed, composable query engine over the semantic trajectory store, built
// for the workload the paper serves from PostgreSQL/PostGIS — "who stopped
// at a restaurant between 12:00 and 14:00 inside this region" (§1, §5).
//
// A Query is a conjunction of predicates over the stored episode tuples:
// moving object, trajectory, interpretation, episode kind, time window,
// annotation key/value (POI category, land-use class, transport mode, ...)
// and spatial window or radius over the episode's geometry. The Engine
// plans each query by ranking the access paths its predicates make
// available — an inverted annotation index, a per-object time-ordered
// index, an insertable packed R-tree forest over episode geometry, direct
// trajectory lookup, or the full scan every other engine falls back to —
// and picks the one with the smallest candidate estimate (see Plan).
//
// The indexes are maintained incrementally from the store's own append
// path (store.AttachIndex), sharded to match the store's lock stripes, so
// the engine serves queries while StreamProcessor ingestion is running.
// Execution is index-assisted but store-verified: indexes only nominate
// candidate refs, and every candidate is resolved against the store's
// current content under its stripe lock and re-checked against all
// predicates. A result can therefore never be a phantom (a tuple the store
// does not hold) or a torn read (a tuple copied while a writer was
// mutating it); at worst a tuple appended concurrently with the query is
// missed, exactly as if the query had run a moment earlier.
package query

import (
	"errors"
	"fmt"
	"math"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/store"
)

// DefaultInterpretation is the interpretation queried when Query leaves it
// empty: the merged per-episode view carrying every layer's annotations.
const DefaultInterpretation = "merged"

// Query is a conjunction of predicates over stored episode tuples. The zero
// value of each field disables that predicate; the zero Query matches every
// tuple of the merged interpretation.
type Query struct {
	// ObjectID restricts results to one moving object.
	ObjectID string
	// TrajectoryID restricts results to one trajectory.
	TrajectoryID string
	// Interpretation selects the structured interpretation to query
	// (DefaultInterpretation when empty).
	Interpretation string
	// Kind restricts results to stop or move episodes (nil matches both).
	Kind *episode.Kind
	// From/To restrict results to tuples overlapping the closed time window
	// [From, To]; a zero bound is open on that side.
	From time.Time
	To   time.Time
	// AnnKey/AnnValue restrict results to tuples whose annotation AnnKey has
	// value AnnValue. An empty AnnValue (with a non-empty AnnKey) matches
	// tuples *without* the key, mirroring AnnotationSet.Value semantics.
	AnnKey   string
	AnnValue string
	// Window restricts results to tuples whose episode bounding rectangle
	// intersects it. Only tuples backed by an episode have geometry.
	Window *geo.Rect
	// Near/Radius restrict results to tuples whose episode centre lies
	// within Radius metres of Near.
	Near   *geo.Point
	Radius float64
	// Limit caps the number of results (after the deterministic sort);
	// 0 means unlimited.
	Limit int
}

// Validate checks the structural invariants of the query.
func (q Query) Validate() error {
	if q.Near != nil && q.Radius <= 0 {
		return errors.New("query: Near requires a positive Radius")
	}
	if q.Near == nil && q.Radius != 0 {
		return errors.New("query: Radius requires Near")
	}
	// NaN and ±Inf compare false against every bound, so the index paths and
	// matches would disagree on them; reject them before any path runs.
	if q.Near != nil && !(finite(q.Near.X) && finite(q.Near.Y) && finite(q.Radius)) {
		return errors.New("query: Near and Radius must be finite")
	}
	if w := q.Window; w != nil && !(finite(w.Min.X) && finite(w.Min.Y) && finite(w.Max.X) && finite(w.Max.Y)) {
		return errors.New("query: spatial window must be finite")
	}
	if q.Window != nil && q.Window.IsEmpty() {
		return errors.New("query: empty spatial window")
	}
	if !q.From.IsZero() && !q.To.IsZero() && q.To.Before(q.From) {
		return fmt.Errorf("query: window ends (%v) before it starts (%v)", q.To, q.From)
	}
	if q.Limit < 0 {
		return errors.New("query: negative limit")
	}
	if q.AnnKey == "" && q.AnnValue != "" {
		return errors.New("query: AnnValue requires AnnKey")
	}
	return nil
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Match is one query result: the ref locating the tuple in the store plus a
// stable copy of the tuple taken under the store's stripe lock at resolution
// time. Matches are ordered by (object, trajectory, position).
type Match struct {
	Ref   store.TupleRef
	Tuple core.EpisodeTuple
}

// less is the canonical result order: object, then trajectory, then tuple
// position — deterministic across shard layouts and access paths.
func (m *Match) less(o *Match) bool {
	if m.Ref.ObjectID != o.Ref.ObjectID {
		return m.Ref.ObjectID < o.Ref.ObjectID
	}
	if m.Ref.TrajectoryID != o.Ref.TrajectoryID {
		return m.Ref.TrajectoryID < o.Ref.TrajectoryID
	}
	return m.Ref.Index < o.Ref.Index
}
