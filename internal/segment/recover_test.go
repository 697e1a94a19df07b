package segment

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/store"
	"semitri/internal/wal"
)

// refuseRuns rewrites, in the segment file at path, the payload of every
// run pick selects to bytes the codec refuses (an unknown op), re-framed
// with a valid CRC at the same size, so the file still opens.
func refuseRuns(t *testing.T, path string, pick func(*RunMeta) bool) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := r.Footer().Runs
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if !pick(&runs[i]) {
			continue
		}
		payload, _, err := wal.ParseFrame(data[runs[i].Off:])
		if err != nil {
			t.Fatal(err)
		}
		for j := range payload {
			payload[j] = 0xff
		}
		copy(data[runs[i].Off:], wal.AppendFrame(nil, payload))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestColdReadsCountUndecodableRun pins the tier's one run reader: a data
// frame whose CRC holds but whose payload the codec refuses is skipped by
// every cold read, keyed and scan alike, and every skip is counted in
// BadRuns instead of passing silently. The other keys read in full.
func TestColdReadsCountUndecodableRun(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	want := capture(st)
	tier.Close()
	paths, _, _, err := listSegmentFiles(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", paths, err)
	}
	refuseRuns(t, paths[0], func(m *RunMeta) bool {
		return m.Op != store.MutPutTrajectory && (m.Object == "obj-0" || m.Traj == "t-0")
	})

	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if n := tier2.BadRuns(); n != 0 {
		t.Fatalf("recovery counted %d bad runs before any read", n)
	}
	if got := st2.Records("obj-0"); len(got) != 0 {
		t.Fatalf("Records read %d records from an undecodable run", len(got))
	}
	if got := st2.Episodes("t-0"); len(got) != 0 {
		t.Fatalf("Episodes read %d episodes from an undecodable run", len(got))
	}
	if got, ok := st2.Structured("t-0", "merged"); !ok || len(got.Tuples) != 0 {
		t.Fatalf("Structured read %v tuples from an undecodable run", got)
	}
	scanned := 0
	st2.VisitColdSegmentTuples(0, "", func(ref store.TupleRef, _ core.EpisodeTuple) bool {
		if ref.TrajectoryID != "t-1" {
			t.Fatalf("scan returned a tuple of %s", ref.TrajectoryID)
		}
		scanned++
		return true
	})
	if n := tier2.BadRuns(); n != 4 {
		t.Fatalf("BadRuns = %d after four reads of undecodable runs, want 4", n)
	}
	if w := len(want.Structured["t-1/merged"].Tuples); scanned != w {
		t.Fatalf("scan returned %d tuples of t-1, want %d", scanned, w)
	}
	if got := st2.Records("obj-1"); len(got) != len(want.Records["obj-1"]) {
		t.Fatalf("Records(obj-1) = %d records, want %d", len(got), len(want.Records["obj-1"]))
	}
}

// TestRunEntryMismatchCountsBadRun pins the integrity check of a tuple
// run's directory fields against its data frame: a run whose data frame
// decodes to another stop count or span than its directory entry — the
// entry and the run's column frame changed alike, so the segment opens —
// is refused by every full read, keyed and scan alike, and counted in
// BadRuns. Each edit keeps the span wide enough that the scan does not
// skip the run unread.
func TestRunEntryMismatchCountsBadRun(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func([]*core.EpisodeTuple)
	}{
		{"stops", func(tps []*core.EpisodeTuple) {
			for _, tp := range tps {
				if tp.Kind != episode.Stop {
					tp.Kind = episode.Stop
					return
				}
			}
		}},
		{"least TimeIn", func(tps []*core.EpisodeTuple) {
			least := slices.MinFunc(tps, func(a, b *core.EpisodeTuple) int { return a.TimeIn.Compare(b.TimeIn) })
			least.TimeIn = least.TimeIn.Add(-time.Second)
		}},
		{"greatest TimeOut", func(tps []*core.EpisodeTuple) {
			greatest := slices.MaxFunc(tps, func(a, b *core.EpisodeTuple) int { return a.TimeOut.Compare(b.TimeOut) })
			greatest.TimeOut = greatest.TimeOut.Add(time.Nanosecond)
		}},
	} {
		dir := t.TempDir()
		st, tier := newTiered(t, dir, 4)
		populate(t, st, 2, 10)
		if err := tier.Freeze(st); err != nil {
			t.Fatal(err)
		}
		want := capture(st)
		tier.Close()
		paths, _, _, err := listSegmentFiles(dir)
		if err != nil || len(paths) != 1 {
			t.Fatalf("want 1 segment, got %v (%v)", paths, err)
		}
		p := readSegment(t, paths[0])
		for i := range p.foot.Runs {
			if meta := &p.foot.Runs[i]; isTupleRun(meta.Op) && meta.Traj == "t-0" {
				span := wal.SpanOf(p.reencode(t, i, func(tps []*core.EpisodeTuple) []*core.EpisodeTuple {
					c.edit(tps)
					return tps
				}))
				meta.Stops, meta.TimeMin, meta.TimeMax = span.Stops, span.Min, span.Max
			}
		}
		p.write(t, paths[0])
		st2, tier2, _, err := Recover(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := st2.Structured("t-0", "merged"); !ok || len(got.Tuples) != 0 {
			t.Fatalf("%s: Structured read %v tuples from a run its entry misdescribes", c.name, got)
		}
		scanned := 0
		st2.VisitColdSegmentTuples(0, "", func(ref store.TupleRef, _ core.EpisodeTuple) bool {
			if ref.TrajectoryID != "t-1" {
				t.Fatalf("%s: scan returned a tuple of %s", c.name, ref.TrajectoryID)
			}
			scanned++
			return true
		})
		if w := len(want.Structured["t-1/merged"].Tuples); scanned != w {
			t.Fatalf("%s: scan returned %d tuples of t-1, want %d", c.name, scanned, w)
		}
		if n := tier2.BadRuns(); n != 2 {
			t.Fatalf("%s: BadRuns = %d after two reads of a misdescribed run, want 2", c.name, n)
		}
		tier2.Close()
	}
}

// freezeTwice freezes populate(st, 2, 10) into one segment, then appends
// tuples 5–9 of t-0 and obj-0's records 10–19 (the raw trajectory t-0b)
// and freezes them into a second, so that t-0's tuples and obj-0's records
// each span two runs. It returns the store's content after both freezes.
func freezeTwice(t *testing.T, st *store.Store, tier *Tier) *storeState {
	t.Helper()
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		tp := testTuple("t-0", i)
		tp.Episode.ObjectID = "obj-0"
		if err := st.AppendStructuredTuples("t-0", "obj-0", "merged", tp); err != nil {
			t.Fatal(err)
		}
	}
	recs := make([]gps.Record, 0, 10)
	for i := 10; i < 20; i++ {
		recs = append(recs, gps.Record{ObjectID: "obj-0", Position: geo.Pt(float64(i), 0), Time: ts(i)})
	}
	if err := st.PutTrajectory("t-0b", "obj-0", st.PutRecords(recs), len(recs)); err != nil {
		t.Fatal(err)
	}
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	return capture(st)
}

// TestUndecodableRunKeepsLaterPositions pins that a run that does not
// decode leaves only its own positions unread: positional reads past it
// still resolve each position to its own tuple or record, and whole-sequence
// reads stop at the run instead of shifting what follows onto its
// positions.
func TestUndecodableRunKeepsLaterPositions(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	want := freezeTwice(t, st, tier)
	tier.Close()
	paths, _, _, err := listSegmentFiles(dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("want 2 segments, got %v (%v)", paths, err)
	}
	refuseRuns(t, paths[0], func(m *RunMeta) bool {
		return m.Op == store.MutPutRecords && m.Object == "obj-0" || isTupleRun(m.Op) && m.Traj == "t-0"
	})

	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	wantTups := want.Structured["t-0/merged"].Tuples
	tuples, ok := st2.AppendTuplesAt("t-0", "merged", []int{0, 5, 9}, nil, nil)
	if ok[0] || !ok[1] || !ok[2] {
		t.Fatalf("AppendTuplesAt ok = %v, want position 0 unresolved and 5, 9 resolved", ok)
	}
	if !reflect.DeepEqual(tuples[1], *wantTups[5]) || !reflect.DeepEqual(tuples[2], *wantTups[9]) {
		t.Fatalf("positions 5 and 9 resolved to\n%+v\n%+v\nwant\n%+v\n%+v", tuples[1], tuples[2], *wantTups[5], *wantTups[9])
	}
	if got, ok := st2.Structured("t-0", "merged"); !ok || len(got.Tuples) != 0 {
		t.Fatalf("Structured read %d tuples past an undecodable run at position 0", len(got.Tuples))
	}
	if got := st2.Records("obj-0"); len(got) != 0 {
		t.Fatalf("Records read %d records past an undecodable run at position 0", len(got))
	}
	if got, ok := st2.Trajectory("t-0b"); !ok || !reflect.DeepEqual(got, want.Trajs["t-0b"]) {
		t.Fatalf("Trajectory(t-0b) over the readable run = %+v, want %+v", got, want.Trajs["t-0b"])
	}
	if got, ok := st2.Structured("t-1", "merged"); !ok || !reflect.DeepEqual(got, want.Structured["t-1/merged"]) {
		t.Fatal("Structured(t-1) differs from the live store")
	}
}

// TestKeyedResolveDecodesOneRun pins the ranged keyed resolve: resolving
// one frozen position decodes the one run that holds it, however many runs
// its key has.
func TestKeyedResolveDecodesOneRun(t *testing.T) {
	st, tier := newTiered(t, t.TempDir(), 4)
	defer tier.Close()
	want := freezeTwice(t, st, tier)
	for _, idx := range []int{2, 7} {
		before := obs.SegmentColdReads.Value()
		tuples, ok := st.AppendTuplesAt("t-0", "merged", []int{idx}, nil, nil)
		if n := obs.SegmentColdReads.Value() - before; n != 1 {
			t.Fatalf("resolving position %d of a two-run key decoded %d runs, want 1", idx, n)
		}
		if !ok[0] || !reflect.DeepEqual(tuples[0], *want.Structured["t-0/merged"].Tuples[idx]) {
			t.Fatalf("position %d resolved to %+v (ok %v)", idx, tuples[0], ok[0])
		}
	}
	before := obs.SegmentColdReads.Value()
	if _, ok := st.AppendTuplesAt("t-0", "merged", []int{1, 3, 6, 8}, nil, nil); !reflect.DeepEqual(ok, []bool{true, true, true, true}) {
		t.Fatalf("ok = %v", ok)
	}
	if n := obs.SegmentColdReads.Value() - before; n != 2 {
		t.Fatalf("resolving four positions over two runs decoded %d runs, want 2", n)
	}
}

// TestKeyedResolveBuildsWantedTuples pins that a keyed read builds only
// the tuples it wants of the run it decodes: resolving one position, by
// AppendTuplesAt and by the one-position ColdTuples a merge into a frozen
// position reads, allocates as much from a run of 40 tuples as from a run
// of 10 (the last position of each, an odd one: alike tuples).
func TestKeyedResolveBuildsWantedTuples(t *testing.T) {
	allocs := map[int][2]float64{}
	for _, n := range []int{10, 40} {
		st, tier := newTiered(t, t.TempDir(), 4)
		putObject(t, st, "obj-0", "t-0", 0, 2*n)
		if err := tier.Freeze(st); err != nil {
			t.Fatal(err)
		}
		at, tuples, ok := []int{n - 1}, make([]core.EpisodeTuple, 0, 1), make([]bool, 0, 1)
		allocs[n] = [2]float64{
			testing.AllocsPerRun(20, func() { st.AppendTuplesAt("t-0", "merged", at, tuples[:0], ok[:0]) }),
			testing.AllocsPerRun(20, func() { tier.ColdTuples("t-0", "merged", n-1, n, tuples[:0]) }),
		}
		want := testTuple("t-0", n-1)
		want.Episode.ObjectID = "obj-0"
		if got, ok := st.AppendTuplesAt("t-0", "merged", at, nil, nil); !ok[0] || !reflect.DeepEqual(got[0], *want) {
			t.Fatalf("run of %d: position %d resolved to %+v (ok %v)", n, n-1, got, ok)
		}
		tier.Close()
	}
	if allocs[40] != allocs[10] {
		t.Fatalf("resolving one position allocates %v from a run of 40 tuples, %v from a run of 10", allocs[40], allocs[10])
	}
}

// TestRecoverOverDeadRuns drives the dead-run path of the freeze protocol:
// keys written between CollectTail and CommitFreeze come back dead — a put
// run whose interpretation is replaced and a positional append run whose
// heap tail takes a merge — and stay on the heap. Recovery without a later
// freeze re-commits the dead runs and replays the WAL over them; recovery
// after a later freeze, which re-emits both keys, lets the new runs
// supersede the dead ones. Both must equal the live store, scans included.
func TestRecoverOverDeadRuns(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(l)
	populate(t, st, 2, 10)
	if err := tier.Checkpoint(l, st); err != nil {
		t.Fatal(err)
	}
	// t-0/merged has a frozen prefix, so its tail freezes as an append run;
	// t-1/fresh was never frozen, so it freezes as a put run.
	if err := st.AppendStructuredTuples("t-0", "obj-0", "merged", testTuple("t-0", 5), testTuple("t-0", 6)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStructuredTuples("t-1", "obj-1", "fresh", testTuple("t-1", 1), testTuple("t-1", 2)); err != nil {
		t.Fatal(err)
	}
	anns := []core.Annotation{{Key: "activity", Value: "shop", Confidence: 0.9, Source: "hmm"}}
	if err := l.Checkpoint(func() error {
		tier.freezeMu.Lock()
		defer tier.freezeMu.Unlock()
		seg, mark, err := tier.write(st)
		if err != nil {
			return err
		}
		if err := st.MergeTupleAnnotations("t-0", "merged", 6, nil, anns); err != nil {
			return err
		}
		if err := st.PutStructured(&core.StructuredTrajectory{ID: "t-1", ObjectID: "obj-1",
			Interpretation: "fresh", Tuples: []*core.EpisodeTuple{testTuple("t-1", 3)}}); err != nil {
			return err
		}
		tier.commit(st, seg, mark)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := st.TupleCount("t-0", "merged"); got != 7 {
		t.Fatalf("t-0/merged holds %d tuples, want 7", got)
	}
	mark, err := st.CollectTail(func(store.Mutation) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if mark.Runs() != 2 {
		t.Fatalf("heap tail after the freeze has %d runs, want the 2 dead keys", mark.Runs())
	}

	// recovered copies dir as it stands and recovers the copy.
	recovered := func(label string) {
		t.Helper()
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		cp := t.TempDir()
		for name, data := range dirContents(t, dir) {
			if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st2, tier2, _, err := Recover(cp, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tier2.Close()
		mustEqualState(t, capture(st), capture(st2), label)
		for _, interp := range []string{"merged", "fresh"} {
			if want, got := scanTuples(st, interp), scanTuples(st2, interp); want != got {
				t.Fatalf("%s: scan of %s sees %d tuples, live store %d", label, interp, got, want)
			}
		}
	}
	recovered("recovered without a later freeze")
	if err := tier.Checkpoint(l, st); err != nil {
		t.Fatal(err)
	}
	recovered("recovered after the freeze that re-emits the dead keys")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tier.Close()
}

// scanTuples counts the tuples a full scan of one interpretation visits.
func scanTuples(st *store.Store, interp string) int {
	n := 0
	st.VisitStructuredTuples(interp, func(store.TupleRef, core.EpisodeTuple) bool {
		n++
		return true
	})
	return n
}

// TestRestartDoesNotReemitMergeFrames pins that recovery's merges are not
// queued for the next freeze: the segment already holds their merge frames,
// so a checkpoint with no new writes after a restart writes no segment.
func TestRestartDoesNotReemitMergeFrames(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	anns := []core.Annotation{{Key: "activity", Value: "shop", Confidence: 0.9, Source: "hmm"}}
	for _, idx := range []int{0, 1, 1} {
		if err := st.MergeTupleAnnotations("t-0", "merged", idx, nil, anns); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if at := overlaid(st2, tier2, "t-0", "merged"); !slices.Equal(at, []int{0, 1}) {
		t.Fatalf("recovered overlay stands in for positions %v, want [0 1]", at)
	}
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st2.AttachLog(l)
	before := tier2.SegmentCount()
	if err := tier2.Checkpoint(l, st2); err != nil {
		t.Fatal(err)
	}
	if got := tier2.SegmentCount(); got != before {
		t.Fatalf("a checkpoint with no new writes after recovery wrote %d segments", got-before)
	}
}
