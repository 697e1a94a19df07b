package store

import (
	"errors"
	"sync/atomic"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
)

// MutationOp enumerates the store's committed write operations. Together
// with Mutation it is the currency between the store and a durability layer
// (internal/wal): every mutating method reports the mutation it just
// committed to the attached MutationLog, and Apply replays a logged mutation
// back into a store during recovery.
type MutationOp uint8

const (
	// MutPutRecords appends raw GPS records of one object (positional).
	MutPutRecords MutationOp = iota + 1
	// MutPutTrajectory stores (or replaces) a raw trajectory: Count records
	// of the object's record run from position Start.
	MutPutTrajectory
	// MutPutEpisodes replaces a trajectory's episode sequence.
	MutPutEpisodes
	// MutAppendEpisodes appends to a trajectory's episode sequence (positional).
	MutAppendEpisodes
	// MutPutStructured replaces a structured trajectory's tuple sequence.
	MutPutStructured
	// MutAppendTuples appends tuples to a structured trajectory (positional).
	MutAppendTuples
	// MutMergeTuple merges annotations (and optionally a place link) into one
	// stored tuple; Start carries the tuple index.
	MutMergeTuple
)

// Mutation is one committed store mutation, in a form that can be
// serialised, shipped and replayed. Positional append ops carry in Start the
// table length observed immediately before the append (captured under the
// stripe lock), which is what makes replay over a later checkpoint base
// idempotent: Apply skips the prefix the base already contains and appends
// only the missing suffix.
type Mutation struct {
	Op             MutationOp
	ObjectID       string
	TrajectoryID   string
	Interpretation string
	// Start is the pre-append table length for positional ops, the tuple
	// index for MutMergeTuple and a raw trajectory's first record position
	// for MutPutTrajectory.
	Start int
	// Count is the number of records a MutPutTrajectory covers, and the
	// run's length in the run headers RecoverRun takes.
	Count int

	Records     []gps.Record         // MutPutRecords
	Episodes    []*episode.Episode   // MutPutEpisodes, MutAppendEpisodes
	Tuples      []*core.EpisodeTuple // MutPutStructured, MutAppendTuples
	Place       *core.Place          // MutMergeTuple
	Annotations []core.Annotation    // MutMergeTuple
}

// MutationLog receives every committed store mutation, in commit order per
// lock stripe. The store calls LogMutation while it still holds the stripe
// lock of the mutated table, so implementations must be fast and must not
// call back into the store. Nothing reachable from a Mutation is written
// again — a MutPutRecords' Records are the log's own copy, episodes are
// final when stored, and a stored tuple is replaced by a merged copy, never
// changed — so a log may keep any of it as it is.
type MutationLog interface {
	LogMutation(m Mutation)
}

// logHolder wraps the attached MutationLog so it fits an atomic pointer.
type logHolder struct{ log MutationLog }

// mlogPtr is the atomic holder AttachLog writes and every mutation path
// reads; nil (the common case) costs one atomic load per mutation.
type mlogPtr = atomic.Pointer[logHolder]

// AttachLog registers a mutation log (nil detaches). Attach it before
// writers start: mutations committed earlier are not re-delivered. At most
// one log is attached at a time; a later call replaces the earlier one.
func (s *Store) AttachLog(l MutationLog) {
	if l == nil {
		s.mlog.Store(nil)
		return
	}
	s.mlog.Store(&logHolder{log: l})
}

// mutationLog returns the attached mutation log, or nil.
func (s *Store) mutationLog() MutationLog {
	if h := s.mlog.Load(); h != nil {
		return h.log
	}
	return nil
}

// errBadMutation reports a mutation that cannot be applied (unknown op).
var errBadMutation = errors.New("store: malformed mutation")

// replaySuffix returns the index into an n-element positional batch from
// which elements are still missing from a table currently cur elements long,
// given the batch was appended when the table was start elements long. A
// batch fully contained in the current table replays as a no-op (n); a batch
// at or past the current end replays in full (0).
func replaySuffix(cur, start, n int) int {
	switch {
	case cur <= start:
		return 0
	case cur >= start+n:
		return n
	default:
		return cur - start
	}
}

// episodeLen returns the current logical length of one trajectory's episode
// table.
func (s *Store) episodeLen(trajectoryID string) int {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.frozenEps(trajectoryID) + len(sh.episodes[trajectoryID])
}

// Apply replays one logged mutation into the store. Replay is idempotent
// with respect to state the store already holds: positional appends skip the
// already-present prefix, replaces re-write the same content and annotation
// merges re-run the same confidence-max rule, so replaying a log tail over a
// checkpoint base frozen mid-tail converges to the exact live state.
//
// Apply is meant for recovery into a store without concurrent writers (the
// per-op read-then-append is not atomic against other mutators of the same
// key) and before a WAL is attached (mutations applied here would otherwise
// be logged again).
func (s *Store) Apply(m Mutation) error {
	switch m.Op {
	case MutPutRecords:
		from := replaySuffix(s.RecordLen(m.ObjectID), m.Start, len(m.Records))
		if from < len(m.Records) {
			s.PutRecords(m.Records[from:])
		}
		return nil
	case MutPutTrajectory:
		return s.PutTrajectory(m.TrajectoryID, m.ObjectID, m.Start, m.Count)
	case MutPutEpisodes:
		return s.PutEpisodes(m.TrajectoryID, m.Episodes)
	case MutAppendEpisodes:
		from := replaySuffix(s.episodeLen(m.TrajectoryID), m.Start, len(m.Episodes))
		if from < len(m.Episodes) {
			return s.AppendEpisodes(m.TrajectoryID, m.Episodes[from:]...)
		}
		return nil
	case MutPutStructured:
		return s.PutStructured(&core.StructuredTrajectory{
			ID:             m.TrajectoryID,
			ObjectID:       m.ObjectID,
			Interpretation: m.Interpretation,
			Tuples:         m.Tuples,
		})
	case MutAppendTuples:
		from := replaySuffix(s.TupleCount(m.TrajectoryID, m.Interpretation), m.Start, len(m.Tuples))
		// A zero-tuple append still creates the interpretation (the streaming
		// line layer relies on that), so it replays even when nothing is
		// missing.
		if from < len(m.Tuples) || len(m.Tuples) == 0 {
			return s.AppendStructuredTuples(m.TrajectoryID, m.ObjectID, m.Interpretation, m.Tuples[from:]...)
		}
		return nil
	case MutMergeTuple:
		return s.MergeTupleAnnotations(m.TrajectoryID, m.Interpretation, m.Start, m.Place, m.Annotations)
	}
	return errBadMutation
}
