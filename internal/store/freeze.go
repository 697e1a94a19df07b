package store

import (
	"errors"
	"sort"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
)

// The freeze protocol: how a cold tier moves the store's heap tail into an
// immutable segment without stopping writers.
//
//  1. CollectTail walks every stripe under its read lock and emits, as
//     ordinary Mutations, the content that is heap-resident right now: full
//     sequences for keys the tier has never seen, positional deltas for keys
//     with a frozen prefix, and one merge frame per dirty overlay entry. The
//     tier serialises the emissions into a segment file.
//  2. Writers keep going in the meantime. Whole-sequence replaces and
//     in-place annotation merges bump the affected key's generation counter.
//  3. After the segment is durable, CommitFreeze re-locks each stripe and,
//     for every emitted run whose generation is unchanged, evicts the
//     captured heap prefix, advances the key's frozen state over the run
//     (advance) and has the tier index the run (Tier.indexRun), all under
//     the stripe lock. Runs whose key was written in between stay on the
//     heap (the tier must not serve them) and are re-emitted by the next
//     freeze; the re-emitted run supersedes the dead one at recovery.
//
// Recovery replays a segment directory through the same two rules, run by
// run in segment order: RecoverRun calls advance, and segment recovery
// calls Tier.indexRun. Only the eviction is the live commit's own.
//
// The two-phase shape keeps the stripe locks held only for memory work —
// the segment I/O happens between them — at the cost of re-emitting the
// rare key that raced the freeze.

// FreezeMark records what one CollectTail captured, so CommitFreeze can
// evict exactly that. It is single-use and not safe for concurrent use;
// the tier serialises freezes.
type FreezeMark struct {
	entries []freezeEntry
	dirty   []dirtyMark
}

// Runs reports the number of emitted runs; CommitFreeze's result has this
// length, aligned with the emission order.
func (m *FreezeMark) Runs() int { return len(m.entries) }

// freezeEntry is one emitted run: its stripe, what it does to its key's
// frozen state and the key's generation observed at collect time.
type freezeEntry struct {
	sh *shard
	frozenRun
	gen uint64
}

// frozenRun is what one segment run does to its key's frozen state (see
// advance): the key, the logical length of the key's frozen prefix once the
// run is in, that prefix's stop count (episodes only), and whether the run
// is a put, which supersedes the key's earlier frozen content.
type frozenRun struct {
	key   freezeKey
	count int
	stops int
	put   bool
}

// dirtyMark records how much of a stripe's overlayDirty queue was emitted.
type dirtyMark struct {
	sh    *shard
	taken int
}

// CollectTail emits the store's current heap tail as a sequence of
// Mutations — the segment writer's input. Emissions happen under stripe
// read locks (one stripe at a time), so emit must not call back into the
// store. The episodes and tuples an emitted Mutation reaches are never
// written again; its Records are a scratch run that the next emission
// overwrites, so emit must copy or serialise them before it returns. The
// record runs of every stripe are emitted first, then the
// other tables stripe by stripe; stripes are walked in order and keys within
// a stripe in sorted order, so the emission sequence is deterministic. An
// emit error aborts the collection.
func (s *Store) CollectTail(emit func(Mutation) error) (*FreezeMark, error) {
	mark := &FreezeMark{}
	// covered is each object's record-run length the segments persist once
	// this freeze's record runs are in them. A trajectory that reaches past
	// it (its records arrived after its object's stripe was walked) stays
	// unfrozen for the next freeze, so a segment never holds a range over
	// records the segments lack.
	covered := map[string]int{}
	var buf []gps.Record // one scratch run, reused by every emit
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := collectRecords(sh, mark, covered, &buf, emit)
		sh.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := collectShard(sh, mark, covered, emit)
		sh.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	return mark, nil
}

// collectRecords emits one stripe's heap record runs and notes every
// object's covered length. Caller holds sh.mu (read).
func collectRecords(sh *shard, mark *FreezeMark, covered map[string]int, buf *[]gps.Record, emit func(Mutation) error) error {
	// Raw records: append-only, so a captured prefix can never be
	// invalidated — the entries carry generation 0 and always commit.
	objs := make([]string, 0, len(sh.records))
	for obj, recs := range sh.records {
		covered[obj] = sh.frozenRecs(obj) + len(recs)
		if len(recs) > 0 {
			objs = append(objs, obj)
		}
	}
	sort.Strings(objs)
	for _, obj := range objs {
		heap := sh.records[obj]
		base := sh.frozenRecs(obj)
		*buf = appendRecords((*buf)[:0], obj, heap)
		if err := emit(Mutation{Op: MutPutRecords, ObjectID: obj, Start: base, Records: *buf}); err != nil {
			return err
		}
		mark.entries = append(mark.entries, freezeEntry{sh: sh, frozenRun: frozenRun{
			key: freezeKey{table: frzRecords, key: obj}, count: base + len(heap)}})
	}
	return nil
}

// collectShard emits one stripe's trajectories, episodes, tuples and dirty
// overlay entries. Caller holds sh.mu (read).
func collectShard(sh *shard, mark *FreezeMark, covered map[string]int, emit func(Mutation) error) error {
	// Raw trajectories: ranges no segment holds yet; eviction marks them
	// frozen.
	tids := make([]string, 0, len(sh.trajectories))
	for id, tr := range sh.trajectories {
		if !tr.frozen && tr.start+tr.count <= covered[tr.objectID] {
			tids = append(tids, id)
		}
	}
	sort.Strings(tids)
	for _, id := range tids {
		tr := sh.trajectories[id]
		k := freezeKey{table: frzTrajectory, key: id}
		if err := emit(Mutation{Op: MutPutTrajectory, ObjectID: tr.objectID,
			TrajectoryID: id, Start: tr.start, Count: tr.count}); err != nil {
			return err
		}
		mark.entries = append(mark.entries, freezeEntry{sh: sh, frozenRun: frozenRun{key: k}, gen: sh.gen(k)})
	}

	// Episodes: a key the tier has never seen emits its full sequence as a
	// put run; a key with a frozen prefix emits the tail as a positional
	// append.
	eids := make([]string, 0, len(sh.episodes))
	for id := range sh.episodes {
		eids = append(eids, id)
	}
	sort.Strings(eids)
	for _, id := range eids {
		heap := sh.episodes[id]
		if len(heap) == 0 {
			continue
		}
		base := sh.frozenEps(id)
		has := false
		stops := 0
		if sh.frozen != nil {
			_, has = sh.frozen.eps[id]
			stops = sh.frozen.epStops[id]
		}
		var m Mutation
		if has {
			m = Mutation{Op: MutAppendEpisodes, TrajectoryID: id, Start: base, Episodes: heap}
		} else {
			m = Mutation{Op: MutPutEpisodes, TrajectoryID: id, Episodes: heap}
		}
		if err := emit(m); err != nil {
			return err
		}
		for _, e := range heap {
			if e.Kind == episode.Stop {
				stops++
			}
		}
		k := freezeKey{table: frzEpisodes, key: id}
		mark.entries = append(mark.entries, freezeEntry{sh: sh, frozenRun: frozenRun{key: k,
			count: base + len(heap), stops: stops, put: !has}, gen: sh.gen(k)})
	}

	// Structured tuples: same put-vs-append rule, except a never-frozen key
	// emits even when empty — an empty interpretation is observable state
	// the segment must persist.
	for _, tk := range sh.sortedTupleKeys() {
		st := sh.structured[tk.traj][tk.interp]
		base := sh.frozenTups(tk)
		has := false
		if sh.frozen != nil {
			_, has = sh.frozen.tups[tk]
		}
		if has && len(st.Tuples) == 0 {
			continue
		}
		var m Mutation
		if has {
			m = Mutation{Op: MutAppendTuples, ObjectID: st.ObjectID, TrajectoryID: tk.traj,
				Interpretation: tk.interp, Start: base, Tuples: st.Tuples}
		} else {
			m = Mutation{Op: MutPutStructured, ObjectID: st.ObjectID, TrajectoryID: tk.traj,
				Interpretation: tk.interp, Tuples: st.Tuples}
		}
		if err := emit(m); err != nil {
			return err
		}
		k := freezeKey{table: frzTuples, key: tk.traj, interp: tk.interp}
		mark.entries = append(mark.entries, freezeEntry{sh: sh, frozenRun: frozenRun{key: k,
			count: base + len(st.Tuples), put: !has}, gen: sh.gen(k)})
	}

	// Dirty overlay entries: one merge frame each, carrying the full
	// post-merge annotation set so replay is an idempotent fixed point.
	if sh.frozen == nil || len(sh.frozen.overlayDirty) == 0 {
		return nil
	}
	taken := len(sh.frozen.overlayDirty)
	seen := make(map[overlayRef]bool, taken)
	for _, ref := range sh.frozen.overlayDirty[:taken] {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		tp, ok := sh.frozen.overlay[ref.k][ref.idx]
		if !ok {
			continue // the key was replaced since the merge was queued
		}
		if err := emit(Mutation{Op: MutMergeTuple, TrajectoryID: ref.k.traj,
			Interpretation: ref.k.interp, Start: ref.idx,
			Place: tp.Place, Annotations: tp.Annotations.All()}); err != nil {
			return err
		}
		mark.entries = append(mark.entries, freezeEntry{sh: sh, frozenRun: frozenRun{
			key: freezeKey{table: frzOverlay, key: ref.k.traj, interp: ref.k.interp}}})
	}
	mark.dirty = append(mark.dirty, dirtyMark{sh: sh, taken: taken})
	return nil
}

// CommitFreeze evicts the heap prefixes CollectTail captured, after the
// tier has made the emitted segment durable. The result has one entry per
// emitted run, in emission order: true means the run's content was evicted
// and the tier now serves it; false means the key was written between
// collect and commit, the heap still holds its content and the tier must
// not serve the run (the next freeze re-emits the key, shadowing the dead
// run at recovery). Overlay merge runs are always live.
//
// committed is called with each live run's index while its stripe lock is
// still held, so the tier indexes the run in the same critical section that
// advances the key's frozen base: a reader that sees the new base also sees
// the run. It may take tier locks (shard→tier order) but must not call back
// into the store.
func (s *Store) CommitFreeze(mark *FreezeMark, committed func(run int)) []bool {
	live := make([]bool, len(mark.entries))
	for i, e := range mark.entries {
		e.sh.mu.Lock()
		if live[i] = s.commitFreezeEntry(e); live[i] {
			committed(i)
		}
		e.sh.mu.Unlock()
	}
	for _, d := range mark.dirty {
		d.sh.mu.Lock()
		if fz := d.sh.frozen; fz != nil && d.taken <= len(fz.overlayDirty) {
			fz.overlayDirty = append([]overlayRef(nil), fz.overlayDirty[d.taken:]...)
		}
		d.sh.mu.Unlock()
	}
	return live
}

// commitFreezeEntry evicts one captured run's heap prefix if its key is
// unchanged, then advances the key's frozen state over the run. Caller
// holds e.sh.mu (write).
func (s *Store) commitFreezeEntry(e freezeEntry) bool {
	sh := e.sh
	if e.key.table == frzOverlay {
		return true
	}
	if sh.gen(e.key) != e.gen {
		return false
	}
	take := e.count - sh.frozenMeta().base(e.key)
	ok := false
	switch id := e.key.key; e.key.table {
	case frzRecords:
		sh.records[id], ok = evict(sh.records[id], take)
	case frzTrajectory:
		_, ok = sh.trajectories[id]
	case frzEpisodes:
		sh.episodes[id], ok = evict(sh.episodes[id], take)
	case frzTuples:
		if st := sh.structured[id][e.key.interp]; st != nil {
			st.Tuples, ok = evict(st.Tuples, take)
		}
	}
	if ok {
		s.advance(sh, e.frozenRun)
	}
	return ok
}

// evict drops the first take elements of a heap tail, cloning the rest so
// the evicted prefix's backing array is released. It reports false, and
// keeps the tail, when the tail does not hold take elements.
func evict[T any](heap []T, take int) ([]T, bool) {
	if take < 0 || take > len(heap) {
		return heap, false
	}
	return append([]T(nil), heap[take:]...), true
}

// advance is the one rule by which a segment run changes its key's frozen
// state, on a live freeze's commit (after the captured heap prefix left the
// heap) and at recovery (RecoverRun) alike: the key's frozen base moves to
// the run's end, a raw trajectory's range is marked frozen, and a put run
// of tuples drops the merge overlay of the content it supersedes. Caller
// holds sh.mu (write).
func (s *Store) advance(sh *shard, r frozenRun) {
	fz := sh.frozenMeta()
	switch id := r.key.key; r.key.table {
	case frzRecords:
		fz.recs[id] = r.count
	case frzTrajectory:
		tr := sh.trajectories[id]
		tr.frozen = true
		sh.trajectories[id] = tr
	case frzEpisodes:
		fz.eps[id] = r.count
		fz.epStops[id] = r.stops
	case frzTuples:
		k := tupKey{id, r.key.interp}
		if r.put {
			delete(fz.overlay, k)
		}
		fz.tups[k] = r.count
	}
}

// errBadRun reports a recovered run that does not extend its key's frozen
// content: a negative extent, a put that does not start at 0, a positional
// run that starts past the key's frozen end or a trajectory range past its
// object's records.
var errBadRun = errors.New("store: run does not extend its key's frozen content")

// RecoverRun re-commits one run of an attached cold tier's segments at
// recovery, by the rule a live freeze commits it by: the key gets its empty
// heap entry if it has none (a raw trajectory its range and its place in
// its object's listing), advance moves the key's frozen state over the run
// and the logical totals move by the frozen base's delta. A merge run goes
// through MergeTupleAnnotations's merge; the overlay entry it leaves is not
// queued for the next freeze, since a segment already holds it.
//
// m is the run's header — Op, keys, Start and Count, the run's length (a
// raw trajectory's range for MutPutTrajectory) — or, for a merge run, its
// decoded frame; stops is the stop count of the key's frozen episodes once
// an episode run is in. Segment recovery calls it once per run, in segment
// order, after the tier indexed the run and before the WAL tail replays and
// writers start.
func (s *Store) RecoverRun(m Mutation, stops int) error {
	r := frozenRun{count: m.Start + m.Count, stops: stops,
		put: m.Op == MutPutEpisodes || m.Op == MutPutStructured}
	switch m.Op {
	case MutMergeTuple:
		return s.merge(m.TrajectoryID, m.Interpretation, m.Start, m.Place, m.Annotations, false)
	case MutPutRecords:
		r.key = freezeKey{table: frzRecords, key: m.ObjectID}
	case MutPutTrajectory:
		r.key = freezeKey{table: frzTrajectory, key: m.TrajectoryID}
	case MutPutEpisodes, MutAppendEpisodes:
		r.key = freezeKey{table: frzEpisodes, key: m.TrajectoryID}
	case MutPutStructured, MutAppendTuples:
		r.key = freezeKey{table: frzTuples, key: m.TrajectoryID, interp: m.Interpretation}
	default:
		return errBadMutation
	}
	if m.Start < 0 || m.Count < 0 || (r.put && m.Start != 0) ||
		(m.Op == MutPutTrajectory && m.Count > s.RecordLen(m.ObjectID)-m.Start) {
		return errBadRun
	}
	sh := s.shardFor(r.key.key)
	sh.mu.Lock()
	fz := sh.frozenMeta()
	id, base, listed := r.key.key, fz.base(r.key), true
	if m.Start > base && r.key.table != frzTrajectory {
		sh.mu.Unlock()
		return errBadRun
	}
	switch r.key.table {
	case frzRecords:
		if _, ok := sh.records[id]; !ok {
			sh.records[id] = nil
		}
		sh.recordCount += r.count - base
	case frzTrajectory:
		_, listed = sh.trajectories[id]
		sh.trajectories[id] = trajRange{objectID: m.ObjectID, start: m.Start, count: m.Count}
	case frzEpisodes:
		if _, ok := sh.episodes[id]; !ok {
			sh.episodes[id] = nil
		}
		sh.stopCount += stops - fz.epStops[id]
		sh.moveCount += (r.count - stops) - (base - fz.epStops[id])
	case frzTuples:
		k := tupKey{id, r.key.interp}
		if sh.structured[id] == nil {
			sh.structured[id] = structuredByInterp{}
		}
		if _, ok := sh.structured[id][k.interp]; !ok {
			sh.structured[id][k.interp] = &core.StructuredTrajectory{ID: id, ObjectID: m.ObjectID, Interpretation: k.interp}
			sh.structCount++
		}
	}
	s.advance(sh, r)
	sh.mu.Unlock()
	if !listed {
		os := s.shardFor(m.ObjectID)
		os.mu.Lock()
		os.trajByObject[m.ObjectID] = append(os.trajByObject[m.ObjectID], id)
		os.mu.Unlock()
	}
	return nil
}
