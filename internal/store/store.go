// Package store implements SeMiTri's Semantic Trajectory Store: the
// repository that holds raw GPS records, stop/move episodes and the
// structured semantic trajectories produced by the annotation layers, and
// that the analytics layer and applications query (Fig. 2).
//
// The paper uses PostgreSQL/PostGIS; this is an embedded, dependency-free
// in-memory store with dedicated tables per artefact kind and query-by-object
// / time-window / annotation interfaces. Durability is layered on: every
// write is reported as a Mutation to an attached log (internal/wal), and a
// cold tier (internal/segment) freezes the heap tail into segments. Every
// cleaned fix is stored once: raw records sit in the heap as packed,
// pointer-free runs, one per object (see fix), so stored times come back in
// UTC from the heap as from a segment; a raw trajectory is only a range of
// its object's run — object, first position, count (see trajRange) — in
// the heap, in a logged mutation and in a segment alike.
//
// # Concurrency
//
// The store is lock-striped: its tables are hash-partitioned into shards,
// each guarded by its own RWMutex, so writes for unrelated moving objects
// proceed in parallel instead of serialising on one global lock (the paper's
// middleware annotates many objects' feeds concurrently). Object-keyed
// tables (raw records, the object→trajectory index) live in the shard of the
// object id; trajectory-keyed tables (raw trajectories, episodes, structured
// interpretations) live in the shard of the trajectory id, so even one
// object's trajectories spread across stripes. Aggregate counts are
// maintained as per-shard running totals, making RecordCount, EpisodeCounts,
// StructuredCount and TrajectoryCount O(shards) rather than full-table
// scans. Cross-shard queries (TrajectoryIDs, StructuredIDs, annotation
// queries, Save) merge per-shard snapshots and sort for deterministic
// output.
//
// Operations touching two stripes (PutTrajectory checks its range against
// the object's run, inserts the trajectory in one shard and indexes it under
// its object in another) lock them sequentially, never nested, so the store
// cannot deadlock; the only atomicity given up is that a trajectory may
// momentarily be visible via Trajectory before TrajectoryIDs lists it.
package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/obs"
)

// DefaultShards is the number of lock stripes New uses. It comfortably
// exceeds the core counts the experiments run on, keeping the probability of
// two hot objects sharing a stripe low without bloating the struct.
const DefaultShards = 32

// Store is the semantic trajectory store. The zero value is not usable; use
// New or NewSharded. All methods are safe for concurrent use.
type Store struct {
	shards []*shard
	// hooks holds the attached secondary index (see AttachIndex); nil until
	// one is attached, so unindexed stores pay one atomic load per mutation.
	hooks hooksPtr
	// mlog holds the attached mutation log (see AttachLog); nil until a
	// durability layer attaches, so non-durable stores pay one atomic load
	// per mutation.
	mlog mlogPtr
	// cold holds the attached cold tier (see InstallColdTier); nil for the
	// default all-heap store.
	cold coldPtr
}

// coldPtr is the atomic holder InstallColdTier writes.
type coldPtr = atomic.Pointer[coldHolder]

type structuredByInterp map[string]*core.StructuredTrajectory

// New returns an empty store with DefaultShards lock stripes.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n lock stripes (values below 1 mean
// DefaultShards). One stripe degenerates to the historical single-mutex
// store, which is occasionally useful to pin down striping bugs in tests.
func NewSharded(n int) *Store {
	if n < 1 {
		n = DefaultShards
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// ShardCount reports the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// KeyHash is the hash the store stripes its keys with: FNV-1a over the
// string, inlined so the per-record hot path allocates nothing. It is
// exported so callers partitioning work by the same keys (the streaming
// fan-in shards objects across workers) agree with the store's routing.
func KeyHash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// shardFor routes a key (an object id or a trajectory id, depending on the
// table) to its stripe.
func (s *Store) shardFor(key string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[KeyHash(key)%uint32(len(s.shards))]
}

// lockTimed acquires sh.mu, timing actual waits into the stripe-wait metric.
// An uncontended acquisition succeeds the TryLock and costs exactly what a
// plain Lock's fast path costs — no extra atomics, no clock reads — so the
// record hot path pays nothing for this. Only when the stripe is already
// held (the event the histogram exists to see) do the two clock reads
// happen, and a wait is orders of magnitude longer than they are.
func lockTimed(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	if !obs.Enabled() {
		sh.mu.Lock()
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	obs.StoreStripeWaitNs.ObserveNs(time.Since(t0).Nanoseconds())
}

// PutRecords appends raw GPS records to the record table and returns the
// position the first record took in its object's record run (-1 for an
// empty batch). Each run of consecutive records of one object locks the
// object's stripe once and reaches the attached mutation log as one
// positional entry; the streaming path puts an object's records in runs of
// up to 64. The store keeps no reference to records: the caller may reuse
// the slice once PutRecords returns, and an attached log is handed a copy.
func (s *Store) PutRecords(records []gps.Record) int {
	obs.StoreMutRecords.Add(int64(len(records)))
	l := s.mutationLog()
	first := -1
	for len(records) > 0 {
		obj := records[0].ObjectID
		n := 1
		for n < len(records) && records[n].ObjectID == obj {
			n++
		}
		run := records[:n]
		records = records[n:]
		var logged []gps.Record
		if l != nil {
			logged = slices.Clone(run)
		}
		sh := s.shardFor(obj)
		lockTimed(sh)
		fixes := sh.records[obj]
		pos := sh.frozenRecs(obj) + len(fixes)
		if l != nil {
			l.LogMutation(Mutation{Op: MutPutRecords, ObjectID: obj, Start: pos, Records: logged})
		}
		for _, r := range run {
			fixes = append(fixes, packFix(r))
		}
		sh.records[obj] = fixes
		sh.recordCount += n
		sh.mu.Unlock()
		if first < 0 {
			first = pos
		}
	}
	return first
}

// Records returns the raw records of an object (a copy): the frozen prefix
// read through the cold tier, then the heap tail. Times come back in UTC.
func (s *Store) Records(objectID string) []gps.Record {
	return s.appendRecordRange(nil, objectID, 0, math.MaxInt)
}

// appendRecordRange appends the records at positions [from, to) of an
// object's record run to buf (to is clamped to the run's length): positions
// below the frozen base through one ranged cold read, the rest unpacked from
// the heap tail. A cold read that comes back short ends the range there, so
// the i-th record appended is always the one at position from+i.
func (s *Store) appendRecordRange(buf []gps.Record, objectID string, from, to int) []gps.Record {
	sh := s.shardFor(objectID)
	sh.mu.RLock()
	base := sh.frozenRecs(objectID)
	tail := sh.records[objectID]
	sh.mu.RUnlock()
	to = min(to, base+len(tail))
	if from >= to {
		return buf
	}
	if from < base {
		n := len(buf)
		buf = s.coldTier().ColdRecords(objectID, from, min(to, base), slices.Grow(buf, to-from))
		if len(buf)-n < min(to, base)-from {
			return buf
		}
		from = base
	}
	return appendRecords(buf, objectID, tail[from-base:max(to, base)-base])
}

// RecordLen returns the number of stored records of an object (frozen
// prefix plus heap tail) without materialising them.
func (s *Store) RecordLen(objectID string) int {
	sh := s.shardFor(objectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.frozenRecs(objectID) + len(sh.records[objectID])
}

// RecordCount returns the total number of stored GPS records. The count is
// a running total per stripe, so the query is O(shards).
func (s *Store) RecordCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.recordCount
		sh.mu.RUnlock()
	}
	return n
}

// PutTrajectory stores (or replaces) a raw trajectory: the count records of
// objectID's record run starting at position start. A trajectory is a range,
// not a copy — the records stay stored once, in the run — so the range must
// lie inside the records stored so far.
func (s *Store) PutTrajectory(id, objectID string, start, count int) error {
	if id == "" {
		return errors.New("store: trajectory must have an id")
	}
	if n := s.RecordLen(objectID); start < 0 || count < 0 || start+count > n {
		return fmt.Errorf("store: trajectory %s covers positions [%d,%d) of object %q, which holds %d records",
			id, start, start+count, objectID, n)
	}
	obs.StoreMutTrajectories.Inc()
	ts := s.shardFor(id)
	ts.mu.Lock()
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutPutTrajectory, ObjectID: objectID,
			TrajectoryID: id, Start: start, Count: count})
	}
	// A re-put of a frozen trajectory supersedes the segment's range: the
	// entry is unfrozen and the next freeze re-emits it.
	_, exists := ts.trajectories[id]
	if s.Tiered() {
		ts.bumpGen(freezeKey{table: frzTrajectory, key: id})
	}
	ts.trajectories[id] = trajRange{objectID: objectID, start: start, count: count}
	ts.mu.Unlock()
	if !exists {
		// The object index lives in the object's stripe; lock it after the
		// trajectory stripe is released (sequential, never nested). The
		// existence check above is what keeps concurrent re-puts of the same
		// id from double-indexing it.
		os := s.shardFor(objectID)
		os.mu.Lock()
		os.trajByObject[objectID] = append(os.trajByObject[objectID], id)
		os.mu.Unlock()
	}
	return nil
}

// Trajectory returns a stored raw trajectory by id: its range of the
// object's record run, materialised through one ranged read (a copy, times
// in UTC).
func (s *Store) Trajectory(id string) (*gps.RawTrajectory, bool) {
	tr, ok := s.trajectory(id)
	if !ok {
		return nil, false
	}
	recs := s.appendRecordRange(nil, tr.objectID, tr.start, tr.start+tr.count)
	return &gps.RawTrajectory{ID: id, ObjectID: tr.objectID, Records: recs}, true
}

// TrajectoryLen returns the record count of a stored raw trajectory without
// reading any record.
func (s *Store) TrajectoryLen(id string) (int, bool) {
	tr, ok := s.trajectory(id)
	return tr.count, ok
}

// TrajectoryExtent summarises a stored raw trajectory without materialising
// its records: the owning object, the record count and the first and last
// record times (zero when the trajectory is empty).
func (s *Store) TrajectoryExtent(id string) (objectID string, n int, first, last time.Time, ok bool) {
	tr, ok := s.trajectory(id)
	if !ok {
		return "", 0, time.Time{}, time.Time{}, false
	}
	if tr.count > 0 {
		first = s.recordTime(tr.objectID, tr.start)
		last = s.recordTime(tr.objectID, tr.start+tr.count-1)
	}
	return tr.objectID, tr.count, first, last, true
}

// recordTime returns the time of the record at one position of an object's
// record run (the zero time past its end).
func (s *Store) recordTime(objectID string, pos int) time.Time {
	var one [1]gps.Record
	if recs := s.appendRecordRange(one[:0], objectID, pos, pos+1); len(recs) == 1 {
		return recs[0].Time
	}
	return time.Time{}
}

// trajectory looks a trajectory's range up in its stripe.
func (s *Store) trajectory(id string) (trajRange, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	tr, ok := sh.trajectories[id]
	return tr, ok
}

// TrajectoryIDs returns the ids of the stored trajectories of an object,
// in insertion order. With an empty objectID it returns all trajectory ids
// across every stripe, sorted lexicographically.
func (s *Store) TrajectoryIDs(objectID string) []string {
	if objectID != "" {
		sh := s.shardFor(objectID)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return append([]string(nil), sh.trajByObject[objectID]...)
	}
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.trajectories {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// TrajectoryCount returns the number of stored raw trajectories.
func (s *Store) TrajectoryCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.trajectories)
		sh.mu.RUnlock()
	}
	return n
}

// PutEpisodes stores the stop/move episodes of a trajectory (replacing any
// previously stored episodes for that trajectory).
func (s *Store) PutEpisodes(trajectoryID string, eps []*episode.Episode) error {
	if trajectoryID == "" {
		return errors.New("store: empty trajectory id")
	}
	obs.StoreMutEpisodes.Inc()
	sh := s.shardFor(trajectoryID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutPutEpisodes, TrajectoryID: trajectoryID, Episodes: eps})
	}
	sh.uncountEpisodes(sh.episodes[trajectoryID])
	if sh.frozen != nil {
		// The replace supersedes the frozen prefix too: uncount it, drop the
		// base (reads become heap-only) and fail any freeze capture in
		// flight. The dead segment runs are shadowed by the full re-freeze
		// the next checkpoint writes.
		if base, ok := sh.frozen.eps[trajectoryID]; ok {
			stops := sh.frozen.epStops[trajectoryID]
			sh.stopCount -= stops
			sh.moveCount -= base - stops
			delete(sh.frozen.eps, trajectoryID)
			delete(sh.frozen.epStops, trajectoryID)
		}
	}
	if s.Tiered() {
		sh.bumpGen(freezeKey{table: frzEpisodes, key: trajectoryID})
	}
	sh.episodes[trajectoryID] = append([]*episode.Episode(nil), eps...)
	sh.countEpisodes(eps)
	return nil
}

// AppendEpisodes appends episodes to a trajectory's stored sequence without
// replacing what is already there — the streaming pipeline's write path,
// where episodes of one trajectory arrive one at a time.
func (s *Store) AppendEpisodes(trajectoryID string, eps ...*episode.Episode) error {
	if trajectoryID == "" {
		return errors.New("store: empty trajectory id")
	}
	obs.StoreMutEpisodes.Inc()
	sh := s.shardFor(trajectoryID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutAppendEpisodes, TrajectoryID: trajectoryID,
			Start: sh.frozenEps(trajectoryID) + len(sh.episodes[trajectoryID]), Episodes: eps})
	}
	sh.episodes[trajectoryID] = append(sh.episodes[trajectoryID], eps...)
	sh.countEpisodes(eps)
	return nil
}

// Episodes returns the episodes stored for a trajectory: the frozen prefix
// read through the cold tier, then the heap tail. A frozen prefix that comes
// back short ends the sequence there.
func (s *Store) Episodes(trajectoryID string) []*episode.Episode {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	base := sh.frozenEps(trajectoryID)
	tail := append([]*episode.Episode(nil), sh.episodes[trajectoryID]...)
	sh.mu.RUnlock()
	if base == 0 {
		return tail
	}
	out := s.coldTier().ColdEpisodes(trajectoryID, make([]*episode.Episode, 0, base+len(tail)))
	if len(out) < base {
		return out
	}
	return append(out, tail...)
}

// EpisodeCounts returns the total number of stop and move episodes stored.
// Like RecordCount it reads per-stripe running totals, O(shards).
func (s *Store) EpisodeCounts() (stops, moves int) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		stops += sh.stopCount
		moves += sh.moveCount
		sh.mu.RUnlock()
	}
	return stops, moves
}

// PutStructured stores a structured semantic trajectory under its
// interpretation (region, line, point, merged ...).
func (s *Store) PutStructured(st *core.StructuredTrajectory) error {
	if st == nil || st.ID == "" {
		return errors.New("store: structured trajectory must have an id")
	}
	if st.Interpretation == "" {
		return errors.New("store: structured trajectory must name its interpretation")
	}
	obs.StoreMutStructured.Inc()
	sh := s.shardFor(st.ID)
	sh.mu.Lock()
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutPutStructured, ObjectID: st.ObjectID,
			TrajectoryID: st.ID, Interpretation: st.Interpretation, Tuples: st.Tuples})
	}
	byInterp, ok := sh.structured[st.ID]
	if !ok {
		byInterp = structuredByInterp{}
		sh.structured[st.ID] = byInterp
	}
	if _, exists := byInterp[st.Interpretation]; !exists {
		sh.structCount++
	}
	k := tupKey{st.ID, st.Interpretation}
	var invalidate ColdTier
	if sh.frozen != nil {
		// The replace supersedes the key's frozen tuples and their overlay;
		// the tier stops scanning the dead runs immediately, and the next
		// freeze re-emits the full sequence as a put run that shadows them
		// at recovery.
		if _, cold := sh.frozen.tups[k]; cold {
			delete(sh.frozen.tups, k)
			invalidate = s.coldTier()
		}
		delete(sh.frozen.overlay, k)
	}
	if s.Tiered() {
		sh.bumpGen(freezeKey{table: frzTuples, key: st.ID, interp: st.Interpretation})
	}
	// The store keeps its own header: later appends and merges write it,
	// never the caller's, and the clipped slice makes the first append copy.
	byInterp[st.Interpretation] = &core.StructuredTrajectory{ID: st.ID, ObjectID: st.ObjectID,
		Interpretation: st.Interpretation, Tuples: slices.Clip(st.Tuples)}
	var events []TupleEvent
	sink := s.sink()
	if sink != nil {
		events = tupleEvents(st, 0, 0)
	}
	if invalidate != nil {
		invalidate.InvalidateTuples(st.ID, st.Interpretation)
	}
	sh.mu.Unlock()
	if sink != nil {
		sink.StructuredReplaced(st.ID, st.ObjectID, st.Interpretation, events)
	}
	return nil
}

// AppendStructuredTuples appends tuples to the structured trajectory stored
// under (trajectoryID, interpretation), creating it when absent. It is the
// incremental counterpart of PutStructured: the streaming pipeline appends
// each episode's tuples as the episode closes, and concurrent appends to
// different trajectories are safe.
func (s *Store) AppendStructuredTuples(trajectoryID, objectID, interpretation string, tuples ...*core.EpisodeTuple) error {
	if trajectoryID == "" {
		return errors.New("store: structured trajectory must have an id")
	}
	if interpretation == "" {
		return errors.New("store: structured trajectory must name its interpretation")
	}
	obs.StoreMutStructured.Inc()
	sh := s.shardFor(trajectoryID)
	sh.mu.Lock()
	byInterp, ok := sh.structured[trajectoryID]
	if !ok {
		byInterp = structuredByInterp{}
		sh.structured[trajectoryID] = byInterp
	}
	st, ok := byInterp[interpretation]
	if !ok {
		st = &core.StructuredTrajectory{ID: trajectoryID, ObjectID: objectID, Interpretation: interpretation}
		byInterp[interpretation] = st
		sh.structCount++
	}
	base := sh.frozenTups(tupKey{trajectoryID, interpretation})
	start := len(st.Tuples)
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutAppendTuples, ObjectID: objectID,
			TrajectoryID: trajectoryID, Interpretation: interpretation,
			Start: base + start, Tuples: tuples})
	}
	st.Tuples = append(st.Tuples, tuples...)
	var events []TupleEvent
	sink := s.sink()
	if sink != nil && len(tuples) > 0 {
		events = tupleEvents(st, start, base)
	}
	sh.mu.Unlock()
	if len(events) > 0 {
		sink.TuplesAppended(events)
	}
	return nil
}

// Structured returns the structured trajectory stored for a trajectory id
// and interpretation, as one view of it read under the stripe lock: the
// frozen tuples read through the cold tier (overlay applied), then the heap
// tail. A frozen prefix that comes back short ends the sequence there, so
// every tuple's index is its position. The result is the caller's own — its
// tuple slice and the tuples it points to are copies — so the caller may
// keep, read or change it while writers go on, and nothing it does reaches
// the store.
func (s *Store) Structured(trajectoryID, interpretation string) (*core.StructuredTrajectory, bool) {
	v, ok := s.view(trajectoryID, interpretation)
	if !ok {
		return nil, false
	}
	tuples := s.appendFrozen(&v, make([]core.EpisodeTuple, 0, v.base+len(v.tail)))
	if len(tuples) == v.base {
		for _, tp := range v.tail {
			tuples = append(tuples, *tp)
		}
	}
	out := &core.StructuredTrajectory{ID: trajectoryID, ObjectID: v.objectID, Interpretation: interpretation,
		Tuples: make([]*core.EpisodeTuple, len(tuples))}
	for i := range tuples {
		out.Tuples[i] = &tuples[i]
	}
	return out, true
}

// Interpretations lists the interpretations stored for a trajectory.
func (s *Store) Interpretations(trajectoryID string) []string {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	byInterp := sh.structured[trajectoryID]
	out := make([]string, 0, len(byInterp))
	for k := range byInterp {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StructuredIDs returns the ids of all trajectories that have at least one
// stored structured interpretation, sorted lexicographically.
func (s *Store) StructuredIDs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.structured {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// StructuredCount returns the number of stored structured trajectories
// across all interpretations (an O(shards) running total).
func (s *Store) StructuredCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.structCount
		sh.mu.RUnlock()
	}
	return n
}
