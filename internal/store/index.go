package store

import (
	"errors"
	"sort"
	"sync/atomic"

	"semitri/internal/core"
	"semitri/internal/obs"
)

// errNoSuchTuple reports a MergeTupleAnnotations target that does not exist.
var errNoSuchTuple = errors.New("store: no such tuple")

// TupleRef locates one episode tuple inside the store: the structured
// trajectory it belongs to and its position in that trajectory's tuple
// sequence. Refs are the currency between the store and a secondary-index
// layer: an index stores refs, and resolves them back through TupleAt when a
// query needs the tuple's current content. Positions are logical — on a
// tiered store a ref below the key's frozen base resolves through the cold
// tier, at or above it through the heap tail — so indexes built before a
// freeze stay valid after it.
type TupleRef struct {
	TrajectoryID   string
	ObjectID       string
	Interpretation string
	Index          int
}

// TupleEvent is one index-maintenance notification: the ref of a tuple that
// was appended, replaced or updated, together with a stable copy of its
// content taken while the stripe lock was held. Indexes must read the copy,
// never the stored original (which concurrent writers keep mutating under
// the stripe lock).
type TupleEvent struct {
	Ref   TupleRef
	Tuple core.EpisodeTuple
	// Changed is set on TupleUpdated events only: the annotations the
	// update merged in, at their post-merge values. Indexes that already
	// hold the tuple only need postings for these, not for the whole set.
	Changed []core.Annotation
}

// Index is the contract between the store and an incrementally maintained
// secondary-index layer (internal/query.Engine implements it). The store
// calls the methods after the corresponding table mutation committed and the
// stripe lock was released, from the mutating goroutine; per structured
// trajectory the pipeline writes from a single goroutine, so notifications
// for one (trajectory, interpretation) arrive in mutation order.
type Index interface {
	// TuplesAppended reports tuples appended to a structured trajectory
	// (Ref.Index carries each tuple's final position).
	TuplesAppended(events []TupleEvent)
	// StructuredReplaced reports that PutStructured replaced the whole tuple
	// sequence of (trajectoryID, interpretation); events carries the full
	// new content (possibly empty).
	StructuredReplaced(trajectoryID, objectID, interpretation string, events []TupleEvent)
	// TupleUpdated reports that a stored tuple gained annotations in place
	// (the streaming close path merging the point layer's results).
	TupleUpdated(event TupleEvent)
}

// indexHooks is the attached indexes, notified in attach order. It sits
// behind one atomic pointer, so the hot append path pays a single load when
// no index is attached.
type indexHooks []Index

func (h *indexHooks) TuplesAppended(events []TupleEvent) {
	for _, ix := range *h {
		ix.TuplesAppended(events)
	}
}

func (h *indexHooks) StructuredReplaced(trajectoryID, objectID, interpretation string, events []TupleEvent) {
	for _, ix := range *h {
		ix.StructuredReplaced(trajectoryID, objectID, interpretation, events)
	}
}

func (h *indexHooks) TupleUpdated(event TupleEvent) {
	for _, ix := range *h {
		ix.TupleUpdated(event)
	}
}

// AttachIndex registers incrementally maintained secondary indexes, which
// every mutation then notifies in argument order; nil entries are skipped,
// so callers can pass optional consumers unconditionally (the query engine
// and the live standing-query tap ride one attachment). Each call replaces
// the previous attachment; attaching nothing detaches. Attach before
// concurrent writers start, or backfill from VisitStructuredTuples
// afterwards — TuplesAppended events and the backfill scan may overlap, so
// indexes must treat re-delivery of a ref as idempotent.
func (s *Store) AttachIndex(ixs ...Index) {
	hooks := make(indexHooks, 0, len(ixs))
	for _, ix := range ixs {
		if ix != nil {
			hooks = append(hooks, ix)
		}
	}
	if len(hooks) == 0 {
		s.hooks.Store(nil)
		return
	}
	s.hooks.Store(&hooks)
}

// sink returns the attached indexes as one Index, or nil.
func (s *Store) sink() Index {
	if h := s.hooks.Load(); h != nil {
		return h
	}
	return nil
}

// copyTuple snapshots one stored tuple. Caller holds the stripe lock. The
// Place and Episode pointers are shared: both are immutable once the tuple
// reaches the store (places come from the 3rd-party sources, episodes are
// final when appended); only the annotation set keeps being written.
func copyTuple(tp *core.EpisodeTuple) core.EpisodeTuple {
	c := *tp
	c.Annotations = tp.Annotations.Clone()
	return c
}

// tupleEvents builds index notifications for tuples[start:] of a structured
// trajectory's heap tail; base is the key's frozen prefix length, so the
// event refs carry logical positions. Caller holds the stripe lock.
func tupleEvents(st *core.StructuredTrajectory, start, base int) []TupleEvent {
	if start >= len(st.Tuples) {
		return nil
	}
	events := make([]TupleEvent, 0, len(st.Tuples)-start)
	for i := start; i < len(st.Tuples); i++ {
		events = append(events, TupleEvent{
			Ref: TupleRef{
				TrajectoryID:   st.ID,
				ObjectID:       st.ObjectID,
				Interpretation: st.Interpretation,
				Index:          base + i,
			},
			Tuple: copyTuple(st.Tuples[i]),
		})
	}
	return events
}

// TupleAt returns a stable copy of the tuple stored at (trajectoryID,
// interpretation, index), or false when the position does not exist. This is
// the resolution step of indexed query execution: an index's ref is resolved
// against the store's current content under the stripe lock (heap positions)
// or against the immutable segment plus the merge overlay (frozen
// positions), so the result can never be a torn read of a tuple a writer is
// still annotating.
func (s *Store) TupleAt(trajectoryID, interpretation string, index int) (core.EpisodeTuple, bool) {
	if index < 0 {
		return core.EpisodeTuple{}, false
	}
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok {
		sh.mu.RUnlock()
		return core.EpisodeTuple{}, false
	}
	k := tupKey{trajectoryID, interpretation}
	base := sh.frozenTups(k)
	if index >= base {
		h := index - base
		if h >= len(st.Tuples) {
			sh.mu.RUnlock()
			return core.EpisodeTuple{}, false
		}
		tp := copyTuple(st.Tuples[h])
		sh.mu.RUnlock()
		return tp, true
	}
	if s.overlayN.Load() != 0 && sh.frozen != nil {
		if tp, hit := sh.frozen.overlay[k][index]; hit {
			c := copyTuple(tp)
			sh.mu.RUnlock()
			return c, true
		}
	}
	sh.mu.RUnlock()
	cold := s.coldTier().ColdTuples(trajectoryID, interpretation, nil)
	if index < len(cold) {
		return cold[index], true
	}
	return core.EpisodeTuple{}, false
}

// AppendTuplesAt resolves several positions of one structured trajectory
// under a single stripe lock, appending one entry per index to the
// caller-owned tuples and ok: the appended tuples[i] is a stable copy of the
// tuple at indexes[i] and ok[i] reports whether that position exists. Batch
// resolution is what keeps indexed query execution cheap — candidates
// cluster by trajectory, so the executor pays one lock per trajectory
// instead of one per tuple — and reusing the buffers' capacity lets it run
// the whole resolution loop without allocating per batch.
func (s *Store) AppendTuplesAt(trajectoryID, interpretation string, indexes []int, tuples []core.EpisodeTuple, ok []bool) ([]core.EpisodeTuple, []bool) {
	at := len(tuples)
	for range indexes {
		tuples = append(tuples, core.EpisodeTuple{})
		ok = append(ok, false)
	}
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	st, found := sh.structured[trajectoryID][interpretation]
	if !found {
		sh.mu.RUnlock()
		return tuples, ok
	}
	k := tupKey{trajectoryID, interpretation}
	base := sh.frozenTups(k)
	needCold := false
	for i, idx := range indexes {
		if idx < 0 {
			continue
		}
		if idx < base {
			needCold = true
			continue
		}
		if h := idx - base; h < len(st.Tuples) {
			tuples[at+i] = copyTuple(st.Tuples[h])
			ok[at+i] = true
		}
	}
	var overlay map[int]core.EpisodeTuple
	if needCold && s.overlayN.Load() != 0 {
		overlay = sh.copyOverlay(k)
	}
	sh.mu.RUnlock()
	if !needCold {
		return tuples, ok
	}
	// One tier read resolves every frozen position of the batch — candidates
	// cluster by trajectory, so the segment run decodes once per batch.
	cold := s.coldTuplesFor(trajectoryID, interpretation, base, overlay, nil)
	for i, idx := range indexes {
		if idx >= 0 && idx < base && idx < len(cold) {
			tuples[at+i] = cold[idx]
			ok[at+i] = true
		}
	}
	return tuples, ok
}

// TupleSnapshot returns stable copies of every tuple stored under
// (trajectoryID, interpretation), in stored order, plus the owning object
// id. One stripe lock, one pass — the resolution step of trajectory-direct
// query execution.
func (s *Store) TupleSnapshot(trajectoryID, interpretation string) (objectID string, tuples []core.EpisodeTuple, ok bool) {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok {
		sh.mu.RUnlock()
		return "", nil, false
	}
	k := tupKey{trajectoryID, interpretation}
	base := sh.frozenTups(k)
	objectID = st.ObjectID
	tail := make([]core.EpisodeTuple, len(st.Tuples))
	for i, tp := range st.Tuples {
		tail[i] = copyTuple(tp)
	}
	var overlay map[int]core.EpisodeTuple
	if base > 0 && s.overlayN.Load() != 0 {
		overlay = sh.copyOverlay(k)
	}
	sh.mu.RUnlock()
	if base == 0 {
		return objectID, tail, true
	}
	tuples = s.coldTuplesFor(trajectoryID, interpretation, base, overlay,
		make([]core.EpisodeTuple, 0, base+len(tail)))
	return objectID, append(tuples, tail...), true
}

// TupleCount returns the logical number of tuples stored under
// (trajectoryID, interpretation) — frozen prefix plus heap tail, the
// planner's cost estimate for the trajectory-direct access path.
func (s *Store) TupleCount(trajectoryID, interpretation string) int {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok {
		return 0
	}
	return sh.frozenTups(tupKey{trajectoryID, interpretation}) + len(st.Tuples)
}

// MergeTupleAnnotations merges annotations (and, when place is non-nil, the
// place link) into the tuple stored at (trajectoryID, interpretation,
// index), under the stripe lock. It is the streaming close path's
// counterpart of mutating a local tuple before storing it: the point layer's
// results land on already-stored merged tuples, and routing the write
// through the store keeps concurrent readers (Save, TupleAt, the query
// engine) race-free and notifies the attached index.
func (s *Store) MergeTupleAnnotations(trajectoryID, interpretation string, index int, place *core.Place, anns []core.Annotation) error {
	obs.StoreMutAnnotations.Inc()
	sh := s.shardFor(trajectoryID)
	sh.mu.Lock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok || index < 0 {
		sh.mu.Unlock()
		return errNoSuchTuple
	}
	k := tupKey{trajectoryID, interpretation}
	base := sh.frozenTups(k)
	if index < base {
		return s.mergeFrozenTuple(sh, st, k, index, place, anns)
	}
	if index-base >= len(st.Tuples) {
		sh.mu.Unlock()
		return errNoSuchTuple
	}
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutMergeTuple, TrajectoryID: trajectoryID,
			Interpretation: interpretation, Start: index, Place: place, Annotations: anns})
	}
	if s.Tiered() {
		// The in-place write may land inside a freeze's captured delta; the
		// bump makes the freeze re-collect the key instead of evicting a heap
		// tail whose segment copy predates this merge.
		sh.bumpGen(freezeKey{table: frzTuples, key: trajectoryID, interp: interpretation})
	}
	tp := st.Tuples[index-base]
	for _, a := range anns {
		tp.Annotations.Add(a)
	}
	if place != nil {
		tp.Place = place
	}
	var ev TupleEvent
	sink := s.sink()
	if sink != nil {
		ev = TupleEvent{
			Ref: TupleRef{
				TrajectoryID:   trajectoryID,
				ObjectID:       st.ObjectID,
				Interpretation: interpretation,
				Index:          index,
			},
			Tuple: copyTuple(tp),
		}
		// Report the post-merge values of the merged keys (Add keeps the old
		// annotation when its confidence wins, and an index must post what
		// the tuple now carries, not what the caller asked for).
		for _, a := range anns {
			if got, found := tp.Annotations.Get(a.Key); found {
				ev.Changed = append(ev.Changed, got)
			}
		}
	}
	sh.mu.Unlock()
	if sink != nil {
		sink.TupleUpdated(ev)
	}
	return nil
}

// mergeFrozenTuple continues MergeTupleAnnotations for a target below the
// key's frozen base: the segment bytes are immutable, so the merged result
// lands in the shard's overlay (consulted before the tier on every read) and
// is queued for the next freeze to write out as a merge frame. The caller
// holds the stripe write lock and this releases it; the first merge into a
// position reads the tier under that lock (shard→tier order), which keeps
// the check-then-materialise atomic against racing merges to the same spot.
func (s *Store) mergeFrozenTuple(sh *shard, st *core.StructuredTrajectory, k tupKey, index int, place *core.Place, anns []core.Annotation) error {
	fz := sh.frozenMeta()
	cur, ok := fz.overlay[k][index]
	if !ok {
		cold := s.coldTier().ColdTuples(k.traj, k.interp, nil)
		if index >= len(cold) {
			sh.mu.Unlock()
			return errNoSuchTuple
		}
		t := cold[index]
		cur = &t
		if fz.overlay[k] == nil {
			fz.overlay[k] = map[int]*core.EpisodeTuple{}
		}
		fz.overlay[k][index] = cur
		s.overlayN.Add(1)
	}
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutMergeTuple, TrajectoryID: k.traj,
			Interpretation: k.interp, Start: index, Place: place, Annotations: anns})
	}
	for _, a := range anns {
		cur.Annotations.Add(a)
	}
	if place != nil {
		cur.Place = place
	}
	fz.overlayDirty = append(fz.overlayDirty, overlayRef{k: k, idx: index})
	var ev TupleEvent
	sink := s.sink()
	if sink != nil {
		ev = TupleEvent{
			Ref: TupleRef{
				TrajectoryID:   k.traj,
				ObjectID:       st.ObjectID,
				Interpretation: k.interp,
				Index:          index,
			},
			Tuple: copyTuple(cur),
		}
		for _, a := range anns {
			if got, found := cur.Annotations.Get(a.Key); found {
				ev.Changed = append(ev.Changed, got)
			}
		}
	}
	sh.mu.Unlock()
	if sink != nil {
		sink.TupleUpdated(ev)
	}
	return nil
}

// VisitStructuredTuples calls fn for every stored tuple of the given
// interpretation (every interpretation when interpretation is empty), as a
// stable copy with its ref. It is the engine's backfill scan and the
// full-scan fallback of unindexable queries: on a tiered store the cold
// segments are visited first (overlay applied), then each stripe's heap
// tuples are copied under the stripe's read lock and fn runs with no lock
// held, so fn may query the store. Stripes are visited in order but
// trajectories within a stripe in map order; callers needing determinism
// sort their results. The visit stops early when fn returns false.
func (s *Store) VisitStructuredTuples(interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) {
	for seg, n := 0, s.ColdSegmentCount(); seg < n; seg++ {
		if !s.VisitColdSegmentTuples(seg, interpretation, fn) {
			return
		}
	}
	var buf []TupleEvent
	for _, sh := range s.shards {
		var more bool
		buf, more = visitShard(sh, buf, interpretation, fn)
		if !more {
			return
		}
	}
}

// VisitShardTuples is the single-stripe, heap-only slice of
// VisitStructuredTuples: it visits only the tuples resident in lock stripe
// `shard` (0 ≤ shard < ShardCount), with the same copy-then-call locking
// discipline. It reports false when fn stopped the visit early. Because the
// stripes partition the heap and VisitColdSegmentTuples partitions the
// frozen tuples by segment, visiting every shard index plus every segment
// index visits every tuple exactly once — the partitioning a parallel scan
// fans out over, one stripe lock (or segment) per worker at a time.
func (s *Store) VisitShardTuples(shard int, interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) bool {
	if shard < 0 || shard >= len(s.shards) {
		return true
	}
	_, more := visitShard(s.shards[shard], nil, interpretation, fn)
	return more
}

// visitShard copies one stripe's heap tuples of the interpretation into buf
// under the stripe's read lock (refs offset by each key's frozen base), then
// calls fn for each with no lock held. It returns the (possibly grown)
// buffer for reuse and whether the visit should continue.
func visitShard(sh *shard, buf []TupleEvent, interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) ([]TupleEvent, bool) {
	buf = buf[:0]
	sh.mu.RLock()
	for id, byInterp := range sh.structured {
		for interp, st := range byInterp {
			if interpretation != "" && interp != interpretation {
				continue
			}
			buf = append(buf, tupleEvents(st, 0, sh.frozenTups(tupKey{id, interp}))...)
		}
	}
	sh.mu.RUnlock()
	for _, ev := range buf {
		if !fn(ev.Ref, ev.Tuple) {
			return buf, false
		}
	}
	return buf, true
}

// Objects returns the ids of every moving object present in the store
// (owning raw records or trajectories), sorted lexicographically.
func (s *Store) Objects() []string {
	seen := map[string]bool{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for obj := range sh.records {
			seen[obj] = true
		}
		for obj := range sh.trajByObject {
			seen[obj] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Strings(out)
	return out
}

// hooksPtr is the atomic holder AttachIndex writes and the mutation paths
// read. It lives here (not on Store directly) so store.go stays focused on
// the tables.
type hooksPtr = atomic.Pointer[indexHooks]
