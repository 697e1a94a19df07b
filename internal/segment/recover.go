package segment

import (
	"fmt"
	"os"
	"path/filepath"

	"semitri/internal/store"
	"semitri/internal/wal"
)

// RecoverStats summarises one recovery.
type RecoverStats struct {
	// Segments is the number of segment files folded into the base.
	Segments int
	// WAL carries the log-tail replay stats.
	WAL wal.RecoverStats
}

// legacySnapshot is the checkpoint base of the removed JSON storage mode.
// Nothing parses it any more; Recover only refuses a directory where it is
// the sole base, because opening that as "empty base + WAL tail" would drop
// everything the snapshot covered without an error.
const legacySnapshot = "snapshot.json"

// Recover is the one recovery procedure of a durable store: it rebuilds a
// tiered store from a directory of segment files plus the WAL tail committed
// after the last freeze. Each segment's runs are re-committed, oldest
// segment first and in emission order within one, through the rules a live
// freeze commits them by — Tier.indexRun on the tier, store.RecoverRun
// (advance) on the store — from the footers alone: the only bodies decoded
// are the merge frames and the tuple runs they merge into, through the live
// merge path. wal.ReplayInto then replays the tail over that base. Runs from a freeze
// that never committed (a crash between segment write and eviction, or a
// dead run whose key was written between collect and commit) re-commit
// too: the WAL retains every frame that was not truncated, a later run that
// re-emits a dead one supersedes it, and idempotent positional replay plus
// replace-supersede semantics converge on the exact pre-crash state. A
// fresh or missing directory recovers to an empty store with an empty tier.
//
// A segment file that fails validation, or whose runs do not extend their
// keys contiguously, is disk corruption, not a crash artifact (segments are
// written temp-file-then-rename, fsynced): recovery returns a clean error
// and never panics. A directory whose only checkpoint base is a
// snapshot.json written by the removed JSON storage mode is refused
// untouched; one that also holds segments (a crash between the migrating
// freeze and the snapshot's unlink) is covered by them and opens normally.
// A directory holding a segment or log file of another format version is
// refused untouched too.
func Recover(dir string, shards int) (*store.Store, *Tier, RecoverStats, error) {
	var stats RecoverStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, err
	}
	paths, staleTmp, maxSeq, err := listSegmentFiles(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	if len(paths) == 0 {
		if _, err := os.Stat(filepath.Join(dir, legacySnapshot)); err == nil {
			return nil, nil, stats, fmt.Errorf("segment: %s holds a %s from the removed JSON storage mode and no segments; "+
				"start it once at the previous release with -storage segments and let one checkpoint run, which migrates it",
				dir, legacySnapshot)
		}
	}
	t := newTier(dir)
	t.nextSeq = maxSeq + 1
	st := store.NewSharded(shards)
	if err := st.InstallColdTier(t); err != nil {
		return nil, nil, stats, err
	}
	for _, p := range paths {
		r, err := Open(p)
		if err == nil {
			t.mu.Lock()
			seg := t.addSegment(r)
			t.mu.Unlock()
			stats.Segments++
			err = t.recommit(st, seg)
		}
		if err != nil {
			t.Close()
			return nil, nil, stats, err
		}
	}
	if err := wal.ReplayInto(dir, st, &stats.WAL); err != nil {
		t.Close()
		return nil, nil, stats, err
	}
	// Only a directory that opened is cleaned: a refused one stays untouched.
	for _, p := range staleTmp {
		os.Remove(p) // leftover of an interrupted freeze
	}
	return st, t, stats, nil
}

// recommit re-commits one added segment's runs, in emission order:
// indexRun on the tier, then RecoverRun on the store with the run's header
// (a merge run with its decoded frame, and an episode run with its key's
// frozen stop count, which the tier's runs give).
func (t *Tier) recommit(st *store.Store, seg int) error {
	r := t.segs[seg]
	cur := getCursor()
	defer putCursor(cur)
	for ent := range r.foot.Runs {
		meta := &r.foot.Runs[ent]
		m := store.Mutation{Op: meta.Op, ObjectID: meta.Object, TrajectoryID: meta.Traj,
			Interpretation: meta.Interp, Start: meta.Start, Count: meta.Count}
		if meta.Op == store.MutMergeTuple {
			var ok bool
			if m, ok = t.decode(r, meta, cur, nil, nil); !ok {
				return corruptf(r.path, "merge frame at %d undecodable", meta.Off)
			}
		}
		stops := 0
		t.mu.Lock()
		for _, rr := range t.indexRun(runRef{seg: seg, ent: ent}) {
			stops += t.meta(rr).Stops
		}
		t.mu.Unlock()
		if err := st.RecoverRun(m, stops); err != nil {
			return corruptf(r.path, "run %d (op %d at %d): %v", ent, meta.Op, meta.Off, err)
		}
	}
	return nil
}

// listSegmentFiles returns the directory's segment files sorted by sequence
// number, plus the temp files an interrupted freeze left behind.
func listSegmentFiles(dir string) (paths, staleTmp []string, maxSeq uint64, err error) {
	segs, err := wal.ListSeqFiles(dir, filePrefix, fileSuffix)
	if err != nil {
		return nil, nil, 0, err
	}
	tmps, err := wal.ListSeqFiles(dir, filePrefix, fileSuffix+".tmp")
	if err != nil {
		return nil, nil, 0, err
	}
	for _, f := range segs {
		paths, maxSeq = append(paths, f.Path), f.Seq
	}
	for _, f := range tmps {
		staleTmp = append(staleTmp, f.Path)
	}
	return paths, staleTmp, maxSeq, nil
}
