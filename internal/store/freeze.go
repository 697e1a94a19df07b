package store

import (
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
//     captured heap prefix, advances the key's frozen count (or marks a
//     trajectory's range frozen) and has the tier index the run, all under
//     the stripe lock. Runs whose key was written
//     in between stay on the heap (the tier must not serve them) and are
//     re-emitted by the next freeze, which shadows the dead run at recovery.
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

// freezeEntry is one emitted run: which key, how much of it was captured
// (as a logical count) and the generation observed at collect time.
type freezeEntry struct {
	sh    *shard
	key   freezeKey
	count int // captured logical length (records/episodes/tuples)
	stops int // captured logical stop count (episodes only)
	gen   uint64
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
		mark.entries = append(mark.entries, freezeEntry{sh: sh,
			key: freezeKey{table: frzRecords, key: obj}, count: base + len(heap)})
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
		mark.entries = append(mark.entries, freezeEntry{sh: sh, key: k, gen: sh.gen(k)})
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
		mark.entries = append(mark.entries, freezeEntry{sh: sh, key: k,
			count: base + len(heap), stops: stops, gen: sh.gen(k)})
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
		mark.entries = append(mark.entries, freezeEntry{sh: sh, key: k,
			count: base + len(st.Tuples), gen: sh.gen(k)})
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
		mark.entries = append(mark.entries, freezeEntry{sh: sh,
			key: freezeKey{table: frzOverlay, key: ref.k.traj, interp: ref.k.interp}})
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
		if live[i] = commitFreezeEntry(e.sh, e); live[i] {
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

// commitFreezeEntry evicts one captured run if its key is unchanged.
// Caller holds sh.mu (write).
func commitFreezeEntry(sh *shard, e freezeEntry) bool {
	if e.key.table == frzOverlay {
		return true
	}
	if sh.gen(e.key) != e.gen {
		return false
	}
	fz := sh.frozenMeta()
	switch e.key.table {
	case frzRecords:
		obj := e.key.key
		heap := sh.records[obj]
		take := e.count - fz.recs[obj]
		if take < 0 || take > len(heap) {
			return false
		}
		// Clone the suffix so the evicted prefix's backing array is released.
		sh.records[obj] = append([]fix(nil), heap[take:]...)
		fz.recs[obj] = e.count
	case frzTrajectory:
		tr, ok := sh.trajectories[e.key.key]
		if !ok {
			return false
		}
		tr.frozen = true
		sh.trajectories[e.key.key] = tr
	case frzEpisodes:
		id := e.key.key
		heap := sh.episodes[id]
		take := e.count - fz.eps[id]
		if take < 0 || take > len(heap) {
			return false
		}
		sh.episodes[id] = append([]*episode.Episode(nil), heap[take:]...)
		fz.eps[id] = e.count
		fz.epStops[id] = e.stops
	case frzTuples:
		k := tupKey{e.key.key, e.key.interp}
		st := sh.structured[k.traj][k.interp]
		if st == nil {
			return false
		}
		take := e.count - fz.tups[k]
		if take < 0 || take > len(st.Tuples) {
			return false
		}
		st.Tuples = append([]*core.EpisodeTuple(nil), st.Tuples[take:]...)
		fz.tups[k] = e.count
	default:
		return false
	}
	return true
}
