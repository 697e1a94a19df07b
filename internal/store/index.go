package store

import (
	"errors"
	"maps"
	"slices"
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
// layer: an index stores refs, and resolves them back through AppendTuplesAt
// when a query needs the tuple's current content. Positions are logical — on a
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
// was appended, replaced or updated, together with its content as
// published. Stored tuples are never written after they are published, so
// the copy shares its annotations with the store and stays as it is.
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
	// TupleUpdated reports that a stored tuple was replaced by a copy with
	// annotations merged in (the streaming close path merging the point
	// layer's results).
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
			Tuple: *st.Tuples[i],
		})
	}
	return events
}

// keyView is one structured key as a single hold of its stripe's read lock
// saw it: the owning object, the frozen prefix length, the heap tail and
// the merge overlay of the frozen prefix. It stays valid with no lock held
// because the store writes neither of its containers after publishing them:
// a merge swaps a new tail slice or a new overlay map in, an append writes
// past every published length, and a tuple is never written at all.
type keyView struct {
	k        tupKey
	objectID string
	base     int
	tail     []*core.EpisodeTuple
	overlay  map[int]*core.EpisodeTuple
}

// viewLocked takes a key's view. Caller holds sh.mu.
func (sh *shard) viewLocked(k tupKey, st *core.StructuredTrajectory) keyView {
	v := keyView{k: k, objectID: st.ObjectID, base: sh.frozenTups(k), tail: st.Tuples}
	if v.base > 0 {
		v.overlay = sh.frozen.overlay[k]
	}
	return v
}

// appendViews appends the views of the stripe's keys of the interpretation
// (every one when it is empty) to buf. Caller holds sh.mu.
func (sh *shard) appendViews(buf []keyView, interpretation string) []keyView {
	for id, byInterp := range sh.structured {
		if interpretation != "" {
			if st, ok := byInterp[interpretation]; ok {
				buf = append(buf, sh.viewLocked(tupKey{id, interpretation}, st))
			}
			continue
		}
		for interp, st := range byInterp {
			buf = append(buf, sh.viewLocked(tupKey{id, interp}, st))
		}
	}
	return buf
}

// Cut is one scan's exactly-once cut of the structured tuples of an
// interpretation (every one when it is empty): a view of every key, taken
// stripe by stripe before the scan captures the segment list. The scan
// reads a key's positions at or above its view's base from the view's heap
// tail (VisitShard), and those below it from the segments
// (SegmentVisitor), with the view's overlay applied. A
// freeze registers its segment before it commits any run of it, and a
// key's base moves over a run only when the run commits: a view taken
// before that commit reads the run's positions from its own tail, since in
// the segment they lie at or above its base, and a view taken after it
// finds the run's segment in the list the scan captures after the cut.
// Either way every position is read once, so a freeze racing the scan can
// neither hide a tuple nor show it twice. A key the cut does not hold had
// no tuple when the cut was taken. TakeCut fills a cut, reusing its memory.
type Cut struct {
	interp string
	views  []keyView
	// ends[i] is where stripe i's views end; they start at ends[i-1].
	ends []int
	// at indexes views by key for the segment visits, on a store with
	// segments.
	at map[tupKey]int32
}

// TakeCut fills c with a cut of the store's structured tuples of the
// interpretation (every one when it is empty).
func (s *Store) TakeCut(interpretation string, c *Cut) {
	c.interp, c.views, c.ends = interpretation, c.views[:0], c.ends[:0]
	for _, sh := range s.shards {
		sh.mu.RLock()
		c.views = sh.appendViews(c.views, interpretation)
		sh.mu.RUnlock()
		c.ends = append(c.ends, len(c.views))
	}
	clear(c.at)
	if s.ColdSegmentCount() == 0 {
		return
	}
	if c.at == nil {
		c.at = make(map[tupKey]int32, len(c.views))
	}
	for i := range c.views {
		c.at[c.views[i].k] = int32(i)
	}
}

// Clear drops the cut's views, keeping its memory for the next TakeCut, so
// a pooled cut holds on to no heap tail or overlay between scans.
func (c *Cut) Clear() {
	clear(c.views)
	clear(c.at)
	c.views = c.views[:0]
}

// find returns the cut's view of a key, or nil.
func (c *Cut) find(k tupKey) *keyView {
	if i, ok := c.at[k]; ok {
		return &c.views[i]
	}
	return nil
}

// VisitShard calls fn for every heap tuple the cut holds in lock stripe
// shard (0 ≤ shard < ShardCount): each key's tail, from its view's base
// on. It reports false when fn stopped the visit early.
func (c *Cut) VisitShard(shard int, fn func(ref TupleRef, t *core.EpisodeTuple) bool) bool {
	if shard < 0 || shard >= len(c.ends) {
		return true
	}
	lo := 0
	if shard > 0 {
		lo = c.ends[shard-1]
	}
	for i := range c.views[lo:c.ends[shard]] {
		v := &c.views[lo+i]
		for j, tp := range v.tail {
			ref := TupleRef{TrajectoryID: v.k.traj, ObjectID: v.objectID, Interpretation: v.k.interp, Index: v.base + j}
			if !fn(ref, tp) {
				return false
			}
		}
	}
	return true
}

// view takes a key's view under its stripe's read lock.
func (s *Store) view(trajectoryID, interpretation string) (keyView, bool) {
	sh := s.shardFor(trajectoryID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok {
		return keyView{}, false
	}
	return sh.viewLocked(tupKey{trajectoryID, interpretation}, st), true
}

// appendFrozen appends the view's frozen prefix in position order to buf:
// one tier read, with the overlay applied. A freeze that commits after the
// view was taken adds nothing the view does not already hold in its tail.
// A prefix that comes back short stopped at a position the tier cannot
// read. Called with no stripe lock held.
func (s *Store) appendFrozen(v *keyView, buf []core.EpisodeTuple) []core.EpisodeTuple {
	if v.base == 0 {
		return buf
	}
	at := len(buf)
	buf = s.coldTier().ColdTuples(v.k.traj, v.k.interp, 0, v.base, buf)
	for idx, tp := range v.overlay {
		if at+idx < len(buf) {
			buf[at+idx] = *tp
		}
	}
	return buf
}

// AppendTuplesAt resolves several positions of one structured trajectory
// from one view of it, appending one entry per index to the caller-owned
// tuples and ok: the appended tuples[i] is the tuple at indexes[i] and ok[i]
// reports whether that position exists and can be read. Batch resolution is
// what keeps indexed query execution cheap — candidates cluster by
// trajectory, so the executor pays one lock per trajectory instead of one
// per tuple, and the frozen positions of a batch that the overlay does not
// hold resolve with one tier read, which decodes only the runs holding
// them — and reusing the buffers' capacity lets it run the whole
// resolution loop without allocating per batch.
func (s *Store) AppendTuplesAt(trajectoryID, interpretation string, indexes []int, tuples []core.EpisodeTuple, ok []bool) ([]core.EpisodeTuple, []bool) {
	at := len(tuples)
	for range indexes {
		tuples = append(tuples, core.EpisodeTuple{})
		ok = append(ok, false)
	}
	v, found := s.view(trajectoryID, interpretation)
	if !found {
		return tuples, ok
	}
	cold := false
	for i, idx := range indexes {
		switch {
		case idx < 0:
		case idx >= v.base:
			if h := idx - v.base; h < len(v.tail) {
				tuples[at+i], ok[at+i] = *v.tail[h], true
			}
		default:
			if tp := v.overlay[idx]; tp != nil {
				tuples[at+i], ok[at+i] = *tp, true
			} else {
				cold = true
			}
		}
	}
	if cold {
		s.coldTier().ColdTuplesAt(trajectoryID, interpretation, indexes, v.base, tuples[at:], ok[at:])
	}
	return tuples, ok
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
// index) by the rule of core.EpisodeTuple.Merged. It is the streaming close
// path's way of annotating a tuple that is already stored: the point layer's
// results land on the merged tuples the episodes' closes appended. The
// merged tuple is a new one, swapped in under the stripe lock — into a new
// copy of the heap tail, or into a new copy of the key's overlay when the
// position is frozen (the segment bytes are immutable, and the next freeze
// writes the overlay entry out as a merge frame) — so no reader's tuple or
// view changes, and the attached index is notified.
func (s *Store) MergeTupleAnnotations(trajectoryID, interpretation string, index int, place *core.Place, anns []core.Annotation) error {
	obs.StoreMutAnnotations.Inc()
	return s.merge(trajectoryID, interpretation, index, place, anns, true)
}

// merge is MergeTupleAnnotations's merge; queue reports whether a merge into
// a frozen position queues its overlay entry for the next freeze (RecoverRun
// merges what a segment already holds, and does not).
func (s *Store) merge(trajectoryID, interpretation string, index int, place *core.Place, anns []core.Annotation, queue bool) error {
	sh := s.shardFor(trajectoryID)
	sh.mu.Lock()
	st, ok := sh.structured[trajectoryID][interpretation]
	if !ok || index < 0 {
		sh.mu.Unlock()
		return errNoSuchTuple
	}
	k := tupKey{trajectoryID, interpretation}
	base := sh.frozenTups(k)
	var cur *core.EpisodeTuple
	if index >= base {
		if h := index - base; h < len(st.Tuples) {
			cur = st.Tuples[h]
		}
	} else if cur = sh.frozen.overlay[k][index]; cur == nil {
		// The first merge into a frozen position reads the tier under the
		// stripe lock (shard→tier order), which keeps the read and the
		// overlay write atomic against racing merges to the same spot.
		if cold := s.coldTier().ColdTuples(trajectoryID, interpretation, index, index+1, nil); len(cold) == 1 {
			cur = &cold[0]
		}
	}
	if cur == nil {
		sh.mu.Unlock()
		return errNoSuchTuple
	}
	if l := s.mutationLog(); l != nil {
		l.LogMutation(Mutation{Op: MutMergeTuple, TrajectoryID: trajectoryID,
			Interpretation: interpretation, Start: index, Place: place, Annotations: anns})
	}
	merged := cur.Merged(place, anns)
	if index >= base {
		if s.Tiered() {
			// The swap may land inside a freeze's captured delta; the bump
			// makes the freeze re-collect the key instead of evicting a heap
			// tail whose segment copy predates this merge.
			sh.bumpGen(freezeKey{table: frzTuples, key: trajectoryID, interp: interpretation})
		}
		tail := slices.Clone(st.Tuples)
		tail[index-base] = &merged
		st.Tuples = tail
	} else {
		fz := sh.frozen
		ov := maps.Clone(fz.overlay[k])
		if ov == nil {
			ov = map[int]*core.EpisodeTuple{}
		}
		ov[index] = &merged
		fz.overlay[k] = ov
		if queue {
			fz.overlayDirty = append(fz.overlayDirty, overlayRef{k: k, idx: index})
		}
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
			Tuple: merged,
		}
		// Report the post-merge values of the merged keys (Add keeps the old
		// annotation when its confidence wins, and an index must post what
		// the tuple now carries, not what the caller asked for).
		for _, a := range anns {
			if got, found := merged.Annotations.Get(a.Key); found {
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
// interpretation (every interpretation when interpretation is empty), with
// its ref, once each (see Cut). It is the engine's backfill scan and the
// full-scan fallback of unindexable queries: on a tiered store the cold
// segments are visited first (overlay applied), then each stripe's heap
// tails, and fn runs with no lock held, so fn may query the store.
// Trajectories within a stripe come in map order; callers needing
// determinism sort their results. The visit stops early when fn returns
// false.
func (s *Store) VisitStructuredTuples(interpretation string, fn func(ref TupleRef, t core.EpisodeTuple) bool) {
	var c Cut
	s.TakeCut(interpretation, &c)
	visit := func(ref TupleRef, t *core.EpisodeTuple) bool { return fn(ref, *t) }
	sv := s.NewSegmentVisitor(&c, TupleRead{}, visit)
	for seg, n := 0, s.ColdSegmentCount(); seg < n; seg++ {
		if !sv.Visit(seg) {
			return
		}
	}
	for sh := range s.shards {
		if !c.VisitShard(sh, visit) {
			return
		}
	}
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
