package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"semitri/internal/core"
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
// after the last freeze. The segment footers fold — oldest to newest, later
// runs shadowing earlier ones positionally — into the frozen base without
// decoding bodies; wal.ReplayInto then replays the tail over it. Runs from a
// freeze that never committed (a crash between segment write and eviction)
// fold in too: the WAL retains every frame that would have been truncated,
// and idempotent positional replay plus replace-supersede semantics converge
// on the exact pre-crash state. A fresh or missing directory recovers to an
// empty store with an empty tier.
//
// A segment file that fails validation is disk corruption, not a crash
// artifact (segments are written temp-file-then-rename, fsynced): recovery
// returns a clean error and never panics. A directory whose only checkpoint
// base is a snapshot.json written by the removed JSON storage mode is refused
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
	for _, p := range paths {
		r, err := Open(p)
		if err != nil {
			t.Close()
			return nil, nil, stats, err
		}
		t.segs = append(t.segs, r)
		t.scan = append(t.scan, nil)
		stats.Segments++
	}
	inst, err := t.fold()
	if err != nil {
		t.Close()
		return nil, nil, stats, err
	}
	st := store.NewSharded(shards)
	if err := st.InstallColdTier(t, inst); err != nil {
		t.Close()
		return nil, nil, stats, err
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

// fold replays the open segments' footers, oldest to newest, into the tier's
// run maps and scan lists, and derives the ColdInstall the store needs. Put
// runs reset a key's coverage, positional appends extend it and shadow any
// dead run left by a freeze that never committed (same start, re-emitted by
// the next freeze). Merge runs queue up and apply onto decoded base tuples
// at the end, in segment order.
func (t *Tier) fold() (store.ColdInstall, error) {
	inst := store.ColdInstall{
		Records:      map[string]int{},
		Episodes:     map[string]int{},
		EpisodeStops: map[string]int{},
	}
	tupObj := map[tierKey]string{}
	tupCount := map[tierKey]int{}
	trajAt := map[string]int{} // trajectory id -> index in inst.Trajectories
	merges := map[tierKey][]mergeRef{}

	for segIdx, r := range t.segs {
		for ent := range r.foot.Runs {
			meta := &r.foot.Runs[ent]
			rr := runRef{seg: segIdx, ent: ent}
			switch meta.Op {
			case store.MutPutRecords:
				t.recRuns[meta.Object] = shadowAppend(t.recRuns[meta.Object], rr, meta.Start, t)
				inst.Records[meta.Object] = meta.Start + meta.Count
			case store.MutPutTrajectory:
				// A later run replaces the range but keeps the first put's
				// place in the listing order.
				k := store.ColdTrajKey{ID: meta.Traj, ObjectID: meta.Object, Start: meta.Start, Count: meta.Count}
				if i, ok := trajAt[meta.Traj]; ok {
					inst.Trajectories[i] = k
				} else {
					trajAt[meta.Traj] = len(inst.Trajectories)
					inst.Trajectories = append(inst.Trajectories, k)
				}
			case store.MutPutEpisodes:
				t.epRuns[meta.Traj] = []runRef{rr}
				inst.Episodes[meta.Traj] = meta.Count
			case store.MutAppendEpisodes:
				t.epRuns[meta.Traj] = shadowAppend(t.epRuns[meta.Traj], rr, meta.Start, t)
				inst.Episodes[meta.Traj] = meta.Start + meta.Count
			case store.MutPutStructured:
				k := tierKey{meta.Traj, meta.Interp}
				t.dropScanRuns(t.tupRuns[k])
				t.tupRuns[k] = []runRef{rr}
				t.scan[segIdx] = append(t.scan[segIdx], ent)
				tupObj[k] = meta.Object
				tupCount[k] = meta.Count
				delete(merges, k) // a replace supersedes earlier merges
			case store.MutAppendTuples:
				k := tierKey{meta.Traj, meta.Interp}
				kept, dropped := splitShadowed(t.tupRuns[k], meta.Start, t)
				t.dropScanRuns(dropped)
				t.tupRuns[k] = append(kept, rr)
				t.scan[segIdx] = append(t.scan[segIdx], ent)
				tupObj[k] = meta.Object
				tupCount[k] = meta.Start + meta.Count
			case store.MutMergeTuple:
				k := tierKey{meta.Traj, meta.Interp}
				merges[k] = append(merges[k], mergeRef{rr: rr, idx: meta.Start})
			default:
				return inst, corruptf(r.path, "run %d has unknown op %d", ent, meta.Op)
			}
		}
	}

	for id, runs := range t.epRuns {
		stops := 0
		for _, rr := range runs {
			stops += t.meta(rr).Stops
		}
		inst.EpisodeStops[id] = stops
	}
	for k, count := range tupCount {
		inst.Tuples = append(inst.Tuples, store.ColdTupleKey{
			TrajectoryID: k.traj, ObjectID: tupObj[k], Interpretation: k.interp, Count: count,
		})
	}

	overlay, err := t.foldOverlay(merges)
	if err != nil {
		return inst, err
	}
	inst.Overlay = overlay
	return inst, nil
}

// mergeRef queues one merge run for the overlay fold.
type mergeRef struct {
	rr  runRef
	idx int
}

// shadowAppend appends a positional run, dropping earlier runs whose start
// is at or past the new run's (dead runs the new one re-emits).
func shadowAppend(runs []runRef, rr runRef, start int, t *Tier) []runRef {
	kept, _ := splitShadowed(runs, start, t)
	return append(kept, rr)
}

// splitShadowed partitions runs into those before start and those shadowed
// by a new run starting there.
func splitShadowed(runs []runRef, start int, t *Tier) (kept, dropped []runRef) {
	for _, rr := range runs {
		if t.meta(rr).Start >= start {
			dropped = append(dropped, rr)
		} else {
			kept = append(kept, rr)
		}
	}
	return kept, dropped
}

// dropScanRuns removes the given tuple runs from their segments' scan lists.
func (t *Tier) dropScanRuns(runs []runRef) {
	for _, rr := range runs {
		ents := t.scan[rr.seg]
		kept := ents[:0]
		for _, e := range ents {
			if e != rr.ent {
				kept = append(kept, e)
			}
		}
		t.scan[rr.seg] = kept
	}
}

// foldOverlay materialises the recovered merge overlay: for every merged
// position still covered by a live run, decode the base tuple and apply its
// merge frames in segment order by core.EpisodeTuple.Merged, the rule the
// live merge applied. Each frame carries the full post-merge
// annotation set, so application is an idempotent fixed point; merges whose
// position a later replace superseded were dropped during the fold.
func (t *Tier) foldOverlay(merges map[tierKey][]mergeRef) ([]store.ColdOverlayEntry, error) {
	if len(merges) == 0 {
		return nil, nil
	}
	keys := make([]tierKey, 0, len(merges))
	for k := range merges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].traj != keys[j].traj {
			return keys[i].traj < keys[j].traj
		}
		return keys[i].interp < keys[j].interp
	})
	cur := getCursor()
	defer putCursor(cur)
	var out []store.ColdOverlayEntry
	for _, k := range keys {
		// Group the key's merges by position, preserving segment order
		// within each position.
		byIdx := map[int][]runRef{}
		var idxOrder []int
		for _, mr := range merges[k] {
			if _, ok := byIdx[mr.idx]; !ok {
				idxOrder = append(idxOrder, mr.idx)
			}
			byIdx[mr.idx] = append(byIdx[mr.idx], mr.rr)
		}
		sort.Ints(idxOrder)
		for _, idx := range idxOrder {
			tp, ok, err := t.baseTupleAt(k, idx, cur)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // position no longer covered: merge is moot
			}
			for _, rr := range byIdx[idx] {
				r := t.segs[rr.seg]
				m, err := r.mutationAt(r.foot.Runs[rr.ent].Off, cur)
				if err != nil {
					return nil, corruptf(r.path, "merge frame at %d undecodable", r.foot.Runs[rr.ent].Off)
				}
				tp = tp.Merged(m.Place, m.Annotations)
			}
			out = append(out, store.ColdOverlayEntry{
				TrajectoryID: k.traj, Interpretation: k.interp, Index: idx, Tuple: tp,
			})
		}
	}
	return out, nil
}

// baseTupleAt decodes the frozen tuple at one logical position, straight
// from its covering run.
func (t *Tier) baseTupleAt(k tierKey, idx int, cur *cursor) (core.EpisodeTuple, bool, error) {
	for _, rr := range t.tupRuns[k] {
		meta := t.meta(rr)
		if idx < meta.Start || idx >= meta.Start+meta.Count {
			continue
		}
		r := t.segs[rr.seg]
		m, err := r.mutationAt(meta.Off, cur)
		if err != nil {
			return core.EpisodeTuple{}, false, corruptf(r.path, "tuple frame at %d undecodable", meta.Off)
		}
		if idx-meta.Start >= len(m.Tuples) {
			return core.EpisodeTuple{}, false, corruptf(r.path, "run at %d shorter than directory count", meta.Off)
		}
		return *m.Tuples[idx-meta.Start], true, nil
	}
	return core.EpisodeTuple{}, false, nil
}
