package segment

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// Two views exist per segment. The keyed runs (an object's records, a
// trajectory's episodes, an interpretation's tuples → runs) back the
// base-bounded point reads and only ever hold committed runs, so they can
// never overshoot a key's frozen base. The per-segment scan lists back
// full scans and are populated *before* CommitFreeze evicts the matching
// heap prefixes — the register-before-evict contract. A scan reads a run
// only below the frozen base of its key in the scan's cut (store.Cut), so
// a run registered but not yet committed is read from the heap instead,
// and a scan racing a freeze sees every tuple exactly once.
type Tier struct {
	dir string

	// freezeMu serialises freezes (and the checkpoint wrapping them).
	freezeMu sync.Mutex

	mu   sync.RWMutex
	segs []*Reader // live segments, oldest first; append-only
	// scan[i] lists the entry indexes of segment i's live tuple runs. A
	// list is copy-on-write (see dropScan): a scan shares the list it read
	// under the lock, and no write reaches it.
	scan [][]int
	// runs maps each frozen key to its committed runs, in position order.
	runs map[tierKey][]runRef

	nextSeq uint64

	// badRuns counts the reads that skipped a run that does not decode.
	badRuns atomic.Int64
}

// tierKey identifies one frozen key: an object's record run (table
// MutPutRecords), a trajectory's episodes (MutPutEpisodes) or one
// structured interpretation (MutPutStructured).
type tierKey struct {
	table       store.MutationOp
	key, interp string
}

// keyOf returns the key a run belongs to. Trajectory and merge runs belong
// to none: a trajectory's range and the merge overlay live in the store.
func keyOf(meta *RunMeta) (tierKey, bool) {
	switch meta.Op {
	case store.MutPutRecords:
		return tierKey{table: store.MutPutRecords, key: meta.Object}, true
	case store.MutPutEpisodes, store.MutAppendEpisodes:
		return tierKey{table: store.MutPutEpisodes, key: meta.Traj}, true
	case store.MutPutStructured, store.MutAppendTuples:
		return tierKey{table: store.MutPutStructured, key: meta.Traj, interp: meta.Interp}, true
	}
	return tierKey{}, false
}

// runRef locates one run: segment index, directory entry index.
type runRef struct{ seg, ent int }

var _ store.ColdTier = (*Tier)(nil)

// newTier builds an empty tier rooted at dir.
func newTier(dir string) *Tier {
	return &Tier{dir: dir, runs: map[tierKey][]runRef{}, nextSeq: 1}
}

// meta returns a run's directory entry. Caller holds mu (any mode) or owns
// the refs; footers are immutable after Open.
func (t *Tier) meta(rr runRef) *RunMeta { return &t.segs[rr.seg].foot.Runs[rr.ent] }

// SegmentCount reports the number of live segments (pending ones included).
func (t *Tier) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// ColdSegments implements store.ColdTier.
func (t *Tier) ColdSegments() int { return t.SegmentCount() }

// Summaries implements store.ColdTier: one summary per live segment, the
// fold of its directory's tuple runs.
func (t *Tier) Summaries(buf []store.SegmentSummary) []store.SegmentSummary {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.segs {
		buf = append(buf, r.sum)
	}
	return buf
}

// BadRuns reports how many cold reads skipped a run whose frame does not
// decode (see decode).
func (t *Tier) BadRuns() int64 { return t.badRuns.Load() }

// decode reads one run's data frame, building of a tuple run only the
// tuples keep and want select (see wal.DecodeRun). A frame that does not
// decode, or that decodes to another run than its directory entry names —
// another key, range, stop count or span — is counted in BadRuns and
// reported as not ok: the reader leaves the run's positions unread rather
// than failing, and Pipeline.Health reports the count.
func (t *Tier) decode(r *Reader, meta *RunMeta, cur *cursor, keep store.TupleFilter, want []bool) (store.Mutation, bool) {
	m, span, err := r.mutationAt(meta.Off, cur, keep, want)
	if err == nil && runMeta(m, span, meta.Off, meta.Cols) == *meta {
		return m, true
	}
	t.badRuns.Add(1)
	return store.Mutation{}, false
}

// columns reads one tuple run's column frame, building the tuples read
// keeps as read projects them (see Reader.columnsAt). A frame that does
// not decode, or that holds another count than the run's directory entry,
// is counted in BadRuns and reported as not ok, like a data frame (see
// decode). Open checked the frame's kinds and times against the entry, and
// its checksum shows it is the same frame.
func (t *Tier) columns(r *Reader, meta *RunMeta, cur *cursor, read store.TupleRead) ([]*core.EpisodeTuple, bool) {
	tuples, err := r.columnsAt(meta.Cols, cur, read)
	if err == nil && len(tuples) == meta.Count {
		return tuples, true
	}
	t.badRuns.Add(1)
	return nil, false
}

// eachRun is the keyed readers' one run reader: it calls fn, in position
// order, with every committed run of a key that want selects, decoded
// (decoded is false for a run that does not decode), until fn returns
// false. Of a tuple run, want marks in at — one flag per run position, all
// clear — the positions the decode builds; the others are nil (of any
// other run, at is nil and the decode builds everything). The run list is
// the one read under the read lock, shared (indexRun never writes a list
// a reader holds), and the lock is released before any decoding.
func (t *Tier) eachRun(k tierKey, want func(meta *RunMeta, at []bool) bool, fn func(meta *RunMeta, m store.Mutation, decoded bool) bool) {
	t.mu.RLock()
	refs := t.runs[k]
	segs := t.segs
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, rr := range refs {
		r := segs[rr.seg]
		meta := &r.foot.Runs[rr.ent]
		var at []bool
		if isTupleRun(meta.Op) {
			cur.want = append(cur.want[:0], make([]bool, meta.Count)...)
			at = cur.want
		}
		if !want(meta, at) {
			continue
		}
		if m, ok := t.decode(r, meta, cur, nil, at); !fn(meta, m, ok) {
			return
		}
	}
}

// eachRange calls fn, in position order, with the part [lo, hi) of each of
// a key's runs that falls within the positions [from, to), relative to the
// run's start, only those positions of a tuple run built. It stops at the
// first position of the range it cannot read — one that no committed run
// holds, or whose run does not decode — so the parts fn sees are always
// the range's prefix.
func (t *Tier) eachRange(k tierKey, from, to int, fn func(m store.Mutation, lo, hi int)) {
	next := from
	t.eachRun(k, func(meta *RunMeta, at []bool) bool {
		lo, hi := max(from, meta.Start), min(to, meta.Start+meta.Count)
		for i := lo; i < hi && at != nil; i++ {
			at[i-meta.Start] = true
		}
		return lo < hi
	}, func(meta *RunMeta, m store.Mutation, decoded bool) bool {
		if !decoded || meta.Start > next {
			return false
		}
		if end := min(to, meta.Start+meta.Count); end > next {
			fn(m, next-meta.Start, end-meta.Start)
			next = end
		}
		return true
	})
}

// ColdRecords implements store.ColdTier: the frozen records of one object at
// positions [from, to), decoding only the runs that overlap the range.
func (t *Tier) ColdRecords(objectID string, from, to int, buf []gps.Record) []gps.Record {
	t.eachRange(tierKey{table: store.MutPutRecords, key: objectID}, from, to, func(m store.Mutation, lo, hi int) {
		buf = append(buf, m.Records[lo:hi]...)
	})
	return buf
}

// ColdEpisodes implements store.ColdTier.
func (t *Tier) ColdEpisodes(trajectoryID string, buf []*episode.Episode) []*episode.Episode {
	t.eachRange(tierKey{table: store.MutPutEpisodes, key: trajectoryID}, 0, math.MaxInt, func(m store.Mutation, lo, hi int) {
		buf = append(buf, m.Episodes[lo:hi]...)
	})
	return buf
}

// ColdTuples implements store.ColdTier: the frozen tuples of one structured
// interpretation at positions [from, to), in position order, decoding only
// the runs that overlap the range and building only the range's tuples of
// them. The merge overlay is the store's
// concern: it stands in for tuples at their positions, which the tier
// keeps.
func (t *Tier) ColdTuples(trajectoryID, interpretation string, from, to int, buf []core.EpisodeTuple) []core.EpisodeTuple {
	k := tierKey{table: store.MutPutStructured, key: trajectoryID, interp: interpretation}
	t.eachRange(k, from, to, func(m store.Mutation, lo, hi int) {
		for _, tp := range m.Tuples[lo:hi] {
			buf = append(buf, *tp)
		}
	})
	return buf
}

// ColdTuplesAt implements store.ColdTier, decoding each run that holds a
// wanted position once, building only its wanted tuples, and no other run.
func (t *Tier) ColdTuplesAt(trajectoryID, interpretation string, at []int, base int, tuples []core.EpisodeTuple, ok []bool) {
	holds := func(meta *RunMeta, i int) bool {
		return !ok[i] && at[i] < base && meta.Start <= at[i] && at[i] < meta.Start+meta.Count
	}
	k := tierKey{table: store.MutPutStructured, key: trajectoryID, interp: interpretation}
	t.eachRun(k, func(meta *RunMeta, want []bool) bool {
		hit := false
		for i := range at {
			if holds(meta, i) {
				want[at[i]-meta.Start], hit = true, true
			}
		}
		return hit
	}, func(meta *RunMeta, m store.Mutation, decoded bool) bool {
		if !decoded {
			return true // the run's positions stay unresolved
		}
		for i := range at {
			if holds(meta, i) {
				tuples[i], ok[i] = *m.Tuples[at[i]-meta.Start], true
			}
		}
		return true
	})
}

// InvalidateTuples implements store.ColdTier: a whole-sequence replace
// superseded the key's frozen content. Called under the key's stripe lock,
// so it must not call back into the store; it only mutates tier maps.
func (t *Tier) InvalidateTuples(trajectoryID, interpretation string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.runs, tierKey{table: store.MutPutStructured, key: trajectoryID, interp: interpretation})
	// Drop the key's scan entries everywhere — including a pending run a
	// freeze registered but has not committed yet (its commit will fail on
	// the generation bump this replace made).
	for seg := range t.scan {
		t.dropScan(seg, func(ent int) bool {
			meta := &t.segs[seg].foot.Runs[ent]
			return meta.Traj == trajectoryID && meta.Interp == interpretation
		})
	}
}

// dropScan removes the entries drop selects from segment seg's scan list.
// It builds a new list when it drops any, and never writes the old one,
// which scans in flight share. Caller holds mu (write).
func (t *Tier) dropScan(seg int, drop func(ent int) bool) {
	if slices.ContainsFunc(t.scan[seg], drop) {
		t.scan[seg] = slices.DeleteFunc(slices.Clone(t.scan[seg]), drop)
	}
}

// VisitSegmentTuples implements store.ColdTier: the live frozen tuples of
// one segment below each key's bound that read keeps, read lazily run by
// run. A run whose directory entry shows it holds no tuple read.Keep admits
// — Keep refuses the run's span for each kind the run holds — is skipped
// unread: no frame read, no checksum, no bound asked, no decode. A
// projected read takes each run it reads from its column frame alone and
// builds a kept tuple's projected fields, into the cursor's memory, which
// the next run reuses; the run's data frame is never decoded. A full read
// decodes the data frame, reading each tuple's kind and times first and
// skipping the rest of a tuple read.Keep refuses without building it. The
// merge overlay, applied by the store after this visit, cannot make a
// refused tuple match: a merge never changes a tuple's kind or times
// (store.TupleFilter). The scan list is read under the read lock, shared
// (it is copy-on-write), and the lock released before any decoding or
// callback — fn may take stripe locks.
func (t *Tier) VisitSegmentTuples(seg int, interpretation string, read store.TupleRead, below func(traj, interp string) int, fn func(ref store.TupleRef, tp *core.EpisodeTuple) bool) bool {
	t.mu.RLock()
	if seg < 0 || seg >= len(t.segs) {
		t.mu.RUnlock()
		return true
	}
	r := t.segs[seg]
	ents := t.scan[seg]
	t.mu.RUnlock()
	cur := getCursor()
	defer putCursor(cur)
	for _, ent := range ents {
		meta := &r.foot.Runs[ent]
		if interpretation != "" && meta.Interp != interpretation || !meta.mayHold(read.Keep) {
			continue
		}
		n := below(meta.Traj, meta.Interp) - meta.Start
		if n <= 0 {
			continue
		}
		var tuples []*core.EpisodeTuple
		var ok bool
		if read.Project != nil {
			tuples, ok = t.columns(r, meta, cur, read)
		} else {
			var m store.Mutation
			m, ok = t.decode(r, meta, cur, read.Keep, nil)
			tuples = m.Tuples
		}
		if !ok {
			continue
		}
		for i, tp := range tuples[:min(n, len(tuples))] {
			if tp == nil {
				continue // refused by read.Keep
			}
			ref := store.TupleRef{TrajectoryID: meta.Traj, ObjectID: meta.Object,
				Interpretation: meta.Interp, Index: meta.Start + i}
			if !fn(ref, tp) {
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
	seg, mark, err := t.write(st)
	if err != nil || mark == nil {
		return err
	}
	t.commit(st, seg, mark)
	return nil
}

// write is a freeze's first half: it collects the store's heap tail into a
// new segment file, makes the file durable and registers it, returning its
// index and the store's capture (nil when the tail was empty and no file was
// written). Caller holds freezeMu.
func (t *Tier) write(st *store.Store) (int, *store.FreezeMark, error) {
	t.mu.RLock()
	seq := t.nextSeq
	t.mu.RUnlock()
	w, err := newWriter(t.dir, seq)
	if err != nil {
		return 0, nil, err
	}
	mark, err := st.CollectTail(w.add)
	if err != nil || mark.Runs() == 0 {
		w.abort()
		return 0, nil, err
	}
	if err := w.finish(); err != nil {
		w.abort()
		return 0, nil, err
	}
	r, err := Open(w.path)
	if err != nil {
		return 0, nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSeq = seq + 1
	return t.addSegment(r), mark, nil
}

// commit is a freeze's second half: the store evicts the prefixes mark
// captured, the tier indexing each committed run under the stripe lock that
// evicts it, and the runs that come back dead leave the scan list. Caller
// holds freezeMu.
func (t *Tier) commit(st *store.Store, seg int, mark *store.FreezeMark) {
	live := st.CommitFreeze(mark, func(ent int) {
		t.mu.Lock()
		t.indexRun(runRef{seg: seg, ent: ent})
		t.mu.Unlock()
	})
	t.mu.Lock()
	t.dropScan(seg, func(ent int) bool { return !live[ent] })
	t.mu.Unlock()
	obs.SegmentFreezes.Inc()
}

// addSegment registers an open segment: it joins the live set and its tuple
// runs join the scan list before any of them commits (see the type
// comment). It returns the segment's index. Caller holds mu (write).
func (t *Tier) addSegment(r *Reader) int {
	var ents []int
	for ent := range r.foot.Runs {
		if isTupleRun(r.foot.Runs[ent].Op) {
			ents = append(ents, ent)
		}
	}
	t.segs = append(t.segs, r)
	t.scan = append(t.scan, ents)
	return len(t.segs) - 1
}

// indexRun is the tier's one rule for a run that joins the frozen state, on
// a live freeze's commit and at recovery alike: the run joins its key's
// committed runs, and the runs at or past its start leave them, and the
// scan list, because the run supersedes them. A put run starts at 0 and
// replaces the key's content; a positional run that starts below the key's
// end re-emits a dead run, left by a freeze whose key was written between
// collect and commit. On a live commit a positional run starts at the key's
// end and supersedes nothing, and a put of tuples commits only after a
// replace dropped the key's runs (InvalidateTuples); only a put of episodes
// drops the runs of the episodes a replace superseded, none of them
// scanned. A key's run list is shared with the readers that read it under
// the lock (eachRun), so it is never written below its length: a run that
// supersedes none is appended past its end, and one that supersedes some
// gets a new list. It returns the key's runs. Caller holds mu (write).
func (t *Tier) indexRun(rr runRef) []runRef {
	meta := t.meta(rr)
	k, ok := keyOf(meta)
	if !ok {
		return nil
	}
	runs := t.runs[k]
	superseded := func(old runRef) bool { return t.meta(old).Start >= meta.Start }
	if slices.ContainsFunc(runs, superseded) {
		if isTupleRun(meta.Op) {
			for _, old := range runs {
				if superseded(old) {
					t.dropScan(old.seg, func(ent int) bool { return ent == old.ent })
				}
			}
		}
		runs = slices.DeleteFunc(slices.Clone(runs), superseded)
	}
	t.runs[k] = append(runs, rr)
	return t.runs[k]
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
