package segment

import (
	"sync"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// Tier is the live cold tier: the set of open segment readers plus the
// bookkeeping that maps each frozen key to the runs holding its content. It
// implements store.ColdTier for serving and drives the freeze protocol that
// grows the set.
//
// Two views exist per segment. The keyed maps (records, episodes, tuples →
// runs) back the base-bounded point reads and only ever hold committed runs,
// so they can never overshoot a key's frozen base. The
// per-segment scan lists back full scans and are populated *before*
// CommitFreeze evicts the matching heap prefixes — the register-before-evict
// contract: a scan racing a freeze may see a tuple twice (segment and heap,
// same logical ref) but can never miss it; the query engine's post-sort
// dedup collapses the duplicates.
type Tier struct {
	dir string

	// freezeMu serialises freezes (and the checkpoint wrapping them).
	freezeMu sync.Mutex

	mu   sync.RWMutex
	segs []*Reader // live segments, oldest first; append-only
	// scan[i] lists the entry indexes of segment i's live tuple runs.
	scan [][]int
	// keyed maps: committed runs only, in position order.
	recRuns map[string][]runRef
	epRuns  map[string][]runRef
	tupRuns map[tierKey][]runRef

	nextSeq uint64
}

// tierKey identifies one structured interpretation.
type tierKey struct{ traj, interp string }

// runRef locates one run: segment index, directory entry index.
type runRef struct{ seg, ent int }

var _ store.ColdTier = (*Tier)(nil)

// newTier builds an empty tier rooted at dir.
func newTier(dir string) *Tier {
	return &Tier{
		dir:     dir,
		recRuns: map[string][]runRef{},
		epRuns:  map[string][]runRef{},
		tupRuns: map[tierKey][]runRef{},
		nextSeq: 1,
	}
}

// meta returns a run's directory entry. Caller holds mu (any mode) or owns
// the refs; footers are immutable after Open.
func (t *Tier) meta(rr runRef) *RunMeta { return &t.segs[rr.seg].foot.Runs[rr.ent] }

// runsCopy snapshots a run list under the read lock.
func (t *Tier) runsCopy(refs []runRef) []runRef {
	return append([]runRef(nil), refs...)
}

// SegmentCount reports the number of live segments (pending ones included).
func (t *Tier) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// ColdSegments implements store.ColdTier.
func (t *Tier) ColdSegments() int { return t.SegmentCount() }

// Summaries implements store.ColdTier: one footer summary per live segment.
func (t *Tier) Summaries(buf []store.SegmentSummary) []store.SegmentSummary {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.segs {
		buf = append(buf, r.foot.Summary)
	}
	return buf
}

// ColdRecords implements store.ColdTier: the frozen records of one object at
// positions [from, to), decoding only the runs that overlap the range.
func (t *Tier) ColdRecords(objectID string, from, to int, buf []gps.Record) []gps.Record {
	t.mu.RLock()
	refs := t.runsCopy(t.recRuns[objectID])
	segs := t.segs
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, rr := range refs {
		meta := &segs[rr.seg].foot.Runs[rr.ent]
		lo, hi := max(from, meta.Start)-meta.Start, min(to, meta.Start+meta.Count)-meta.Start
		if lo >= hi {
			continue
		}
		m, err := segs[rr.seg].mutationAt(meta.Off, cur)
		if err != nil || hi > len(m.Records) {
			continue // CRC-verified at open; unreachable in practice
		}
		buf = append(buf, m.Records[lo:hi]...)
	}
	return buf
}

// ColdEpisodes implements store.ColdTier.
func (t *Tier) ColdEpisodes(trajectoryID string, buf []*episode.Episode) []*episode.Episode {
	t.mu.RLock()
	refs := t.runsCopy(t.epRuns[trajectoryID])
	segs := t.segs
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, rr := range refs {
		m, err := segs[rr.seg].mutationAt(segs[rr.seg].foot.Runs[rr.ent].Off, cur)
		if err != nil {
			continue
		}
		buf = append(buf, m.Episodes...)
	}
	return buf
}

// ColdTuples implements store.ColdTier: the frozen tuples of one structured
// interpretation in position order (the overlay is the store's concern).
func (t *Tier) ColdTuples(trajectoryID, interpretation string, buf []core.EpisodeTuple) []core.EpisodeTuple {
	t.mu.RLock()
	refs := t.runsCopy(t.tupRuns[tierKey{trajectoryID, interpretation}])
	segs := t.segs
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, rr := range refs {
		m, err := segs[rr.seg].mutationAt(segs[rr.seg].foot.Runs[rr.ent].Off, cur)
		if err != nil {
			continue
		}
		for _, tp := range m.Tuples {
			buf = append(buf, *tp)
		}
	}
	return buf
}

// InvalidateTuples implements store.ColdTier: a whole-sequence replace
// superseded the key's frozen content. Called under the key's stripe lock,
// so it must not call back into the store; it only mutates tier maps.
func (t *Tier) InvalidateTuples(trajectoryID, interpretation string) {
	k := tierKey{trajectoryID, interpretation}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.tupRuns, k)
	// Drop the key's scan entries everywhere — including a pending run a
	// freeze registered but has not committed yet (its commit will fail on
	// the generation bump this replace made).
	for seg, ents := range t.scan {
		kept := ents[:0]
		for _, ent := range ents {
			meta := &t.segs[seg].foot.Runs[ent]
			if meta.Traj == trajectoryID && meta.Interp == interpretation {
				continue
			}
			kept = append(kept, ent)
		}
		t.scan[seg] = kept
	}
}

// VisitSegmentTuples implements store.ColdTier: every live frozen tuple of
// one segment, decoded lazily run by run. The scan list is snapshotted under
// the read lock and the lock released before any decoding or callback — fn
// may take stripe locks.
func (t *Tier) VisitSegmentTuples(seg int, interpretation string, fn func(ref store.TupleRef, tp core.EpisodeTuple) bool) bool {
	t.mu.RLock()
	if seg < 0 || seg >= len(t.segs) {
		t.mu.RUnlock()
		return true
	}
	r := t.segs[seg]
	ents := append([]int(nil), t.scan[seg]...)
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, ent := range ents {
		meta := &r.foot.Runs[ent]
		if interpretation != "" && meta.Interp != interpretation {
			continue
		}
		m, err := r.mutationAt(meta.Off, cur)
		if err != nil {
			continue
		}
		for i, tp := range m.Tuples {
			ref := store.TupleRef{TrajectoryID: meta.Traj, ObjectID: meta.Object,
				Interpretation: meta.Interp, Index: meta.Start + i}
			if !fn(ref, *tp) {
				return false
			}
		}
	}
	return true
}

// Freeze runs one freeze cycle: collect the store's heap tail into a new
// segment file, make it durable, register its runs for scanning, then let
// the store evict the captured prefixes, indexing each committed run for
// keyed reads under the stripe lock that evicts it. An empty tail writes no
// file. Registration happens before eviction (see the type comment); runs
// whose key was written between collect and commit come back dead and are
// dropped again.
func (t *Tier) Freeze(st *store.Store) error {
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()

	t.mu.RLock()
	seq := t.nextSeq
	t.mu.RUnlock()
	w, err := newWriter(t.dir, seq)
	if err != nil {
		return err
	}
	mark, err := st.CollectTail(w.add)
	if err != nil {
		w.abort()
		return err
	}
	if mark.Runs() == 0 {
		w.abort()
		return nil
	}
	if err := w.finish(); err != nil {
		w.abort()
		return err
	}
	r, err := Open(w.path)
	if err != nil {
		return err
	}

	// Register before evict: the segment's tuple runs join the scan lists
	// first, so no scan can miss content mid-eviction.
	t.mu.Lock()
	segIdx := len(t.segs)
	t.segs = append(t.segs, r)
	ents := make([]int, 0, len(r.foot.Runs))
	for ent := range r.foot.Runs {
		if isTupleRun(r.foot.Runs[ent].Op) {
			ents = append(ents, ent)
		}
	}
	t.scan = append(t.scan, ents)
	t.nextSeq = seq + 1
	t.mu.Unlock()

	live := st.CommitFreeze(mark, func(ent int) {
		t.mu.Lock()
		t.indexRun(runRef{seg: segIdx, ent: ent})
		t.mu.Unlock()
	})

	t.mu.Lock()
	kept := t.scan[segIdx][:0]
	for _, ent := range t.scan[segIdx] {
		if live[ent] {
			kept = append(kept, ent)
		}
	}
	t.scan[segIdx] = kept
	t.mu.Unlock()

	obs.SegmentFreezes.Inc()
	return nil
}

// indexRun adds a committed run to the keyed maps. Caller holds mu (write).
func (t *Tier) indexRun(rr runRef) {
	meta := t.meta(rr)
	switch meta.Op {
	case store.MutPutRecords:
		t.recRuns[meta.Object] = append(t.recRuns[meta.Object], rr)
	case store.MutPutTrajectory:
		// The range lives in the store; the segment only persists it.
	case store.MutPutEpisodes:
		t.epRuns[meta.Traj] = []runRef{rr}
	case store.MutAppendEpisodes:
		t.epRuns[meta.Traj] = append(t.epRuns[meta.Traj], rr)
	case store.MutPutStructured:
		t.tupRuns[tierKey{meta.Traj, meta.Interp}] = []runRef{rr}
	case store.MutAppendTuples:
		k := tierKey{meta.Traj, meta.Interp}
		t.tupRuns[k] = append(t.tupRuns[k], rr)
	case store.MutMergeTuple:
		// Overlay merge frames are recovery-only; the live overlay already
		// sits in the store.
	}
}

// Checkpoint runs an incremental checkpoint: rotate the WAL, freeze the heap
// tail into a segment, then let the log drop everything the segment now
// covers. Its cost is proportional to the tail written since the last
// checkpoint, not to the total stored data.
func (t *Tier) Checkpoint(l *wal.Log, st *store.Store) error {
	return l.Checkpoint(func() error { return t.Freeze(st) })
}

// Close releases every open segment (unmapping them where mapped). The
// caller must have stopped readers first — it belongs at process shutdown,
// after the pipeline's streams and query traffic have drained.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, r := range t.segs {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.segs = nil
	t.scan = nil
	return first
}

// Dir returns the tier's directory.
func (t *Tier) Dir() string { return t.dir }
