package segment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
	"semitri/internal/wal"
)

func ts(i int) time.Time {
	return time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
}

func testEpisode(traj string, i int) *episode.Episode {
	return &episode.Episode{
		TrajectoryID: traj,
		ObjectID:     "o-" + traj,
		Kind:         episode.Kind(i % 2),
		StartIdx:     i,
		EndIdx:       i + 5,
		Start:        ts(i),
		End:          ts(i + 60),
		Center:       geo.Pt(float64(i), float64(i)+0.5),
		Bounds:       geo.NewRect(geo.Pt(float64(i), float64(i)), geo.Pt(float64(i)+10, float64(i)+10)),
		AvgSpeed:     1.25,
		Distance:     42.75,
		RecordCount:  6,
	}
}

func testTuple(traj string, i int) *core.EpisodeTuple {
	tp := &core.EpisodeTuple{
		Kind:    episode.Kind(i % 2),
		TimeIn:  ts(i),
		TimeOut: ts(i + 30),
		Episode: testEpisode(traj, i),
	}
	tp.Annotations.Add(core.Annotation{Key: "landuse", Value: "urban", Confidence: 0.6, Source: "region"})
	if i%2 == 0 {
		tp.Annotations.Add(core.Annotation{Key: "poi_category", Value: "food", Confidence: 0.8, Source: "point"})
		tp.Place = &core.Place{ID: fmt.Sprintf("p%d", i), Kind: core.PointPlace, Name: "café",
			Category: "food", Extent: geo.NewRect(geo.Pt(1, 2), geo.Pt(3, 4))}
	}
	return tp
}

// populate fills a store with n objects worth of every table.
func populate(t testing.TB, st *store.Store, objects, perObj int) {
	t.Helper()
	for o := 0; o < objects; o++ {
		putObject(t, st, fmt.Sprintf("obj-%d", o), fmt.Sprintf("t-%d", o), float64(o), perObj)
	}
}

// putObject writes one object's records, trajectory, episodes and merged
// interpretation, its records on the horizontal line y.
func putObject(t testing.TB, st *store.Store, obj, traj string, y float64, perObj int) {
	t.Helper()
	recs := make([]gps.Record, 0, perObj)
	for i := 0; i < perObj; i++ {
		recs = append(recs, gps.Record{ObjectID: obj, Position: geo.Pt(float64(i), y), Time: ts(i)})
	}
	if err := st.PutTrajectory(traj, obj, st.PutRecords(recs), len(recs)); err != nil {
		t.Fatal(err)
	}
	eps := make([]*episode.Episode, 0, perObj/2)
	tups := make([]*core.EpisodeTuple, 0, perObj/2)
	for i := 0; i < perObj/2; i++ {
		ep := testEpisode(traj, i)
		ep.ObjectID = obj
		eps = append(eps, ep)
		tp := testTuple(traj, i)
		tp.Episode.ObjectID = obj
		tups = append(tups, tp)
	}
	if err := st.PutEpisodes(traj, eps); err != nil {
		t.Fatal(err)
	}
	if err := st.PutStructured(&core.StructuredTrajectory{
		ID: traj, ObjectID: obj, Interpretation: "merged", Tuples: tups,
	}); err != nil {
		t.Fatal(err)
	}
}

// storeState captures a store's full logical content for equality checks.
type storeState struct {
	Records    map[string][]gps.Record
	Trajs      map[string]*gps.RawTrajectory
	TrajIDs    map[string][]string
	Episodes   map[string][]*episode.Episode
	Structured map[string]*core.StructuredTrajectory
	RecordN    int
	Stops      int
	Moves      int
	TrajN      int
	StructN    int
}

func capture(st *store.Store) *storeState {
	s := &storeState{
		Records:    map[string][]gps.Record{},
		Trajs:      map[string]*gps.RawTrajectory{},
		TrajIDs:    map[string][]string{},
		Episodes:   map[string][]*episode.Episode{},
		Structured: map[string]*core.StructuredTrajectory{},
	}
	for _, obj := range st.Objects() {
		s.Records[obj] = st.Records(obj)
		s.TrajIDs[obj] = st.TrajectoryIDs(obj)
		for _, id := range s.TrajIDs[obj] {
			if tr, ok := st.Trajectory(id); ok {
				s.Trajs[id] = tr
			}
			s.Episodes[id] = st.Episodes(id)
			for _, interp := range st.Interpretations(id) {
				if sst, ok := st.Structured(id, interp); ok {
					// The all-heap fast path returns the live internal
					// struct; detach the slice header so a later freeze's
					// eviction cannot truncate this capture.
					cp := *sst
					cp.Tuples = append([]*core.EpisodeTuple(nil), sst.Tuples...)
					s.Structured[id+"/"+interp] = &cp
				}
			}
		}
	}
	s.RecordN = st.RecordCount()
	s.Stops, s.Moves = st.EpisodeCounts()
	s.TrajN = st.TrajectoryCount()
	s.StructN = st.StructuredCount()
	return s
}

func mustEqualState(t *testing.T, want, got *storeState, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		for id, w := range want.Structured {
			if g := got.Structured[id]; !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: structured %s differs:\nwant %+v\ngot  %+v", label, id, w, g)
			}
		}
		t.Fatalf("%s: store state differs (records/episodes/counts)", label)
	}
}

// freezeOnce runs one freeze cycle through a fresh tiered store.
func newTiered(t *testing.T, dir string, shards int) (*store.Store, *Tier) {
	t.Helper()
	st, tier, _, err := Recover(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	return st, tier
}

func TestFreezeServesIdenticalContent(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 5, 20)
	before := capture(st)

	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if got := tier.SegmentCount(); got != 1 {
		t.Fatalf("segments = %d, want 1", got)
	}
	mustEqualState(t, before, capture(st), "after freeze")

	// A second freeze with nothing new writes nothing.
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if got := tier.SegmentCount(); got != 1 {
		t.Fatalf("segments after empty freeze = %d, want 1", got)
	}

	// New data after the freeze lands in a second, delta-only segment.
	populate(t, st, 2, 10) // obj-0, obj-1 again: records append, others replace
	after := capture(st)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if got := tier.SegmentCount(); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	mustEqualState(t, after, capture(st), "after second freeze")
}

// TestFreezeCostTracksTail pins the incremental-checkpoint property on
// bytes, not time: once a base is frozen, freezing a constant-size tail
// writes a near-constant segment however large the store has grown, and far
// less than the base freeze did. A freeze that rewrote the whole store would
// write at least the base again every round.
func TestFreezeCostTracksTail(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	// freeze returns the size of the segment the freeze wrote.
	freeze := func() int64 {
		t.Helper()
		n := tier.SegmentCount()
		if err := tier.Freeze(st); err != nil {
			t.Fatal(err)
		}
		if tier.SegmentCount() != n+1 {
			t.Fatalf("freeze wrote %d segments, want 1", tier.SegmentCount()-n)
		}
		return tier.segs[n].blob.Size()
	}
	populate(t, st, 20, 40)
	base := freeze()

	const rounds = 5
	var tails [rounds]int64
	for r := range tails {
		putObject(t, st, fmt.Sprintf("tail-%d", r), fmt.Sprintf("tt-%d", r), float64(100+r), 40)
		tails[r] = freeze()
	}
	lo, hi := slices.Min(tails[:]), slices.Max(tails[:])
	if hi > 3*lo {
		t.Fatalf("constant-tail segments drift with store size: %v bytes", tails)
	}
	if 4*hi > base {
		t.Fatalf("tail segments %v bytes not within a quarter of the %d-byte base freeze", tails, base)
	}
}

func TestFreezeEvictsHeap(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 3, 30)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	// The heap tail must be empty now: a second collect sees nothing.
	mark, err := st.CollectTail(func(store.Mutation) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if mark.Runs() != 0 {
		t.Fatalf("post-freeze heap tail has %d runs, want 0", mark.Runs())
	}
}

func TestRecoverFromSegments(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 4, 16)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	populate(t, st, 6, 8) // partially overlapping: replaces + fresh objects
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	want := capture(st)
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	st2, tier2, stats, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if stats.Segments != 2 {
		t.Fatalf("recovered %d segments, want 2", stats.Segments)
	}
	mustEqualState(t, want, capture(st2), "after recovery")
}

func TestRecoverSegmentsPlusWALTail(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(l)
	populate(t, st, 3, 12)
	if err := tier.Checkpoint(l, st); err != nil {
		t.Fatal(err)
	}
	populate(t, st, 5, 6) // tail beyond the checkpoint, only in the WAL
	if err := st.MergeTupleAnnotations("t-1", "merged", 0, nil,
		[]core.Annotation{{Key: "activity", Value: "eat", Confidence: 0.95, Source: "x"}}); err != nil {
		t.Fatal(err)
	}
	want := capture(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	st2, tier2, stats, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if stats.Segments != 1 {
		t.Fatalf("recovered %d segments, want 1", stats.Segments)
	}
	if stats.WAL.FramesApplied == 0 {
		t.Fatal("expected a WAL tail to replay over the segment base")
	}
	mustEqualState(t, want, capture(st2), "after segment+tail recovery")
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(l)
	populate(t, st, 3, 40)
	if err := tier.Checkpoint(l, st); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	// Everything lives in the segment: the remaining WAL files must be
	// (nearly) empty — only headers.
	var walBytes int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".log" {
			fi, _ := e.Info()
			walBytes += fi.Size()
		}
	}
	if walBytes > 64 {
		t.Fatalf("post-checkpoint WAL still holds %d bytes", walBytes)
	}
}

func TestMergeOverlaySurvivesFreezeAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	// Merge into a frozen tuple: lands in the overlay, not the segment.
	anns := []core.Annotation{{Key: "activity", Value: "shop", Confidence: 0.9, Source: "hmm"}}
	if err := st.MergeTupleAnnotations("t-0", "merged", 1, nil, anns); err != nil {
		t.Fatal(err)
	}
	want := capture(st)
	got, ok := st.Structured("t-0", "merged")
	if !ok || len(got.Tuples) < 2 {
		t.Fatal("merged interpretation missing after freeze")
	}
	if v := got.Tuples[1].Annotations.Value("activity"); v != "shop" {
		t.Fatalf("overlay merge not visible: activity=%q", v)
	}

	// The next freeze writes the overlay out as a merge frame; recovery
	// rebuilds the overlay from it.
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, want, capture(st), "after overlay freeze")
	tier.Close()

	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	mustEqualState(t, want, capture(st2), "after overlay recovery")
	if at := overlaid(st2, tier2, "t-0", "merged"); !slices.Equal(at, []int{1}) {
		t.Fatalf("recovered overlay stands in for positions %v, want [1]", at)
	}
}

// overlaid returns the frozen positions of (traj, interp) that st reads
// otherwise than its segments hold them: those a merge overlay stands in
// for.
func overlaid(st *store.Store, tier *Tier, traj, interp string) []int {
	got, ok := st.Structured(traj, interp)
	if !ok {
		return nil
	}
	var at []int
	for i, tp := range tier.ColdTuples(traj, interp, 0, math.MaxInt, nil) {
		if !reflect.DeepEqual(tp, *got.Tuples[i]) {
			at = append(at, i)
		}
	}
	return at
}

// TestFooterSummary pins what a tuple run's directory entry tells of the
// run, the one pruning fact left: over two segments holding two
// interpretations, stops and moves, and an untimed tuple, each tuple run's
// entry counts its tuples and stops and holds their span (least TimeIn,
// greatest TimeOut), live and recovered alike, and a run its entry refutes
// under a filter holds no tuple the filter admits.
func TestFooterSummary(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 3, 10) // 3 objects × 5 merged tuples, stops and moves
	untimed := testTuple("t-0", 20)
	untimed.TimeIn = time.Time{}
	if err := st.AppendStructuredTuples("t-0", "obj-0", "line", untimed, testTuple("t-0", 21)); err != nil {
		t.Fatal(err)
	}
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStructuredTuples("t-1", "obj-1", "merged", testTuple("t-1", 100), testTuple("t-1", 103)); err != nil {
		t.Fatal(err)
	}
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	// runs decodes every tuple run of every segment of tr, checking that
	// each entry is the fold of its run's tuples.
	runs := func(label string, tr *Tier) map[*RunMeta][]*core.EpisodeTuple {
		if len(tr.segs) != 2 {
			t.Fatalf("%s: %d segments, want 2", label, len(tr.segs))
		}
		cur := getCursor()
		defer putCursor(cur)
		out := map[*RunMeta][]*core.EpisodeTuple{}
		stops, moves, untimed := 0, 0, 0
		for seg, r := range tr.segs {
			for i := range r.foot.Runs {
				meta := &r.foot.Runs[i]
				if !isTupleRun(meta.Op) {
					continue
				}
				m, ok := tr.decode(r, meta, cur, nil, nil)
				if !ok {
					t.Fatalf("%s: segment %d run %d does not decode", label, seg, i)
				}
				var want wal.Span
				for j, tp := range m.Tuples {
					want.Add(j, tp.Kind, tp.TimeIn, tp.TimeOut)
					if tp.TimeIn.IsZero() {
						untimed++
					}
				}
				if got := (wal.Span{Stops: meta.Stops, Min: meta.TimeMin, Max: meta.TimeMax}); meta.Count != len(m.Tuples) || got != want {
					t.Fatalf("%s: segment %d run %d entry counts %d tuples spanning %+v, its tuples are %d spanning %+v",
						label, seg, i, meta.Count, got, len(m.Tuples), want)
				}
				stops, moves = stops+meta.Stops, moves+meta.Count-meta.Stops
				out[meta] = m.Tuples
			}
		}
		if stops == 0 || moves == 0 || untimed != 1 {
			t.Fatalf("%s: the runs hold %d stops, %d moves and %d untimed tuples, want some, some and 1", label, stops, moves, untimed)
		}
		return out
	}
	live := runs("live", tier)

	// Every kind set and window over the stamps at and around the tuples'
	// times, the zero time included.
	stamps := []time.Time{{}, ts(-5), ts(0), ts(10), ts(40), ts(99), ts(100), ts(120), ts(200)}
	refuted := 0
	for _, kinds := range [][]episode.Kind{{episode.Stop}, {episode.Move}, {episode.Stop, episode.Move}} {
		for _, lo := range stamps {
			for _, hi := range stamps {
				keep := func(kind episode.Kind, in, out time.Time) bool {
					return slices.Contains(kinds, kind) && !out.Before(lo) && !hi.Before(in)
				}
				for meta, run := range live {
					if meta.mayHold(keep) {
						continue
					}
					refuted++
					for _, tp := range run {
						if keep(tp.Kind, tp.TimeIn, tp.TimeOut) {
							t.Fatalf("run %+v refutes kinds %v in [%v, %v] and holds %+v", *meta, kinds, lo, hi, tp)
						}
					}
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("no filter refuted a run")
	}

	// Recovery reads the same entries back.
	var dirs [][]RunMeta
	for _, r := range tier.segs {
		dirs = append(dirs, r.foot.Runs)
	}
	tier.Close()
	_, tier2 := newTiered(t, dir, 4)
	defer tier2.Close()
	runs("recovered", tier2)
	for seg, r := range tier2.segs {
		if !reflect.DeepEqual(r.foot.Runs, dirs[seg]) {
			t.Fatalf("segment %d recovered directory %+v, want %+v", seg, r.foot.Runs, dirs[seg])
		}
	}
}

// testFooter is a footer with every field set.
func testFooter() *Footer {
	return &Footer{
		Dict: []string{"o1", "", "t1", "merged", "café"},
		Runs: []RunMeta{
			{Op: store.MutPutRecords, Object: "o1", Start: 0, Count: 12, Off: 8},
			{Op: store.MutAppendTuples, Object: "o1", Traj: "t1", Interp: "merged",
				Start: 4, Count: 3, Stops: 1, TimeMin: ts(3), TimeMax: ts(90), Off: 640, Cols: 800},
			{Op: store.MutPutStructured, Object: "o1", Traj: "t1", Interp: "merged",
				Count: 2, TimeMax: ts(7), Off: 700, Cols: 850}, // untimed first tuple: TimeMin is zero
			{Op: store.MutPutEpisodes, Traj: "t1", Count: 6, Stops: 2, Off: 99},
		},
	}
}

// oneRunFooter is a footer payload whose dictionary holds the one string
// "o" and whose one run, of records, names its object by the index object.
func oneRunFooter(object uint64) []byte {
	var e wal.Encoder
	e.U8(footerVersion)
	e.Uv(1) // the dictionary
	e.Str("o")
	e.Uv(1) // the run directory
	e.U8(byte(store.MutPutRecords))
	for _, v := range []uint64{object, 0, 0, 0, 1, 0, wal.FileHeaderSize} {
		e.Uv(v)
	}
	return e.Bytes()
}

func TestFooterRoundTrip(t *testing.T) {
	// The far footer's run span lies outside the years UnixNano can
	// represent (1678–2262); the footer keeps it to the nanosecond.
	far := testFooter()
	far.Runs[1].TimeMin = time.Date(1492, 10, 12, 6, 0, 0, 1, time.UTC)
	far.Runs[1].TimeMax = time.Date(2400, 2, 29, 23, 0, 0, 999999999, time.UTC)
	for _, foot := range []*Footer{testFooter(), far} {
		got, err := decodeFooter(encodeFooter(foot))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(foot, got) {
			t.Fatalf("footer round trip:\nwant %+v\ngot  %+v", foot, got)
		}
	}
	// A run naming its key by an index past the dictionary's end is a
	// malformed footer; the same footer with the index in range decodes.
	if foot, err := decodeFooter(oneRunFooter(0)); err != nil || len(foot.Runs) != 1 || foot.Runs[0].Object != "o" {
		t.Fatalf("in-range footer decodes to %+v, %v", foot, err)
	}
	if _, err := decodeFooter(oneRunFooter(1)); err == nil {
		t.Fatal("a run index past the dictionary's end decoded")
	}
	// Arbitrary truncations must error, never panic.
	full := encodeFooter(testFooter())
	for i := 0; i < len(full); i++ {
		if _, err := decodeFooter(full[:i]); err == nil {
			t.Fatalf("truncated footer at %d decoded without error", i)
		}
	}
}

// segmentFileSHA256 pins the bytes of one segment file written from a fixed
// mutation list: two objects through populate, then one Freeze. The data
// frames, the column frames, the footer frame and the trailer all count, so
// a change to the framing routine, the column frames or the footer
// encoding shows here.
const segmentFileSHA256 = "c4a51aa4a3ad19bcda020de2c48613d22036d1292cd928cc2fb6c029687e6086"

func TestSegmentFileGolden(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	paths, _, _, err := listSegmentFiles(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != segmentFileSHA256 {
		t.Fatalf("segment file (%d B) sha256 %s, want %s", len(data), got, segmentFileSHA256)
	}
}

func TestCorruptSegmentFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	paths, _, _, err := listSegmentFiles(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", paths, err)
	}
	orig, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data := mutate(append([]byte(nil), orig...))
		if err := os.WriteFile(paths[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(paths[0]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open err = %v, want ErrCorrupt", name, err)
		}
		if _, _, _, err := Recover(dir, 4); err == nil {
			t.Fatalf("%s: Recover succeeded on a corrupt segment", name)
		}
	}
	corrupt("bit flip in body", func(b []byte) []byte { b[wal.FileHeaderSize+3] ^= 0x40; return b })
	corrupt("bit flip in footer", func(b []byte) []byte { b[len(b)-trailerSize-5] ^= 0x01; return b })
	corrupt("torn tail", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("empty file", func(b []byte) []byte { return nil })

	// Restore: a pristine segment still opens.
	if err := os.WriteFile(paths[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// dirListing returns the directory's entries as "name size" lines.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d", e.Name(), fi.Size()))
	}
	return out
}

// TestLegacySnapshotRefused pins the guard that replaced the JSON→segment
// migration: a directory whose only checkpoint base is a snapshot.json of the
// removed JSON storage mode must not open as "empty base + WAL tail".
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(snap, []byte(`{"records":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Leftovers a parent-era directory can hold: a WAL tail and the temp file
	// of a migrating freeze that crashed. The refusal must leave both alone.
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	logged := store.NewSharded(1)
	logged.AttachLog(l)
	populate(t, logged, 1, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.seg.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	_, _, _, err = Recover(dir, 4)
	if err == nil || !strings.Contains(err.Error(), "snapshot.json") {
		t.Fatalf("Recover of a snapshot-only directory: err = %v, want one naming snapshot.json", err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open changed the directory:\nbefore %v\nafter  %v", before, after)
	}

	// Segments + a stale snapshot.json (a crash between the migrating freeze
	// and the snapshot's unlink): the segments cover it, so the directory
	// opens and answers exactly as it does without the file.
	dir2 := t.TempDir()
	st, tier := newTiered(t, dir2, 4)
	populate(t, st, 3, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	reopen := func() *storeState {
		t.Helper()
		st, tier, stats, err := Recover(dir2, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		if stats.Segments != 1 {
			t.Fatalf("recovered %d segments, want 1", stats.Segments)
		}
		return capture(st)
	}
	without := reopen()
	if err := os.WriteFile(filepath.Join(dir2, "snapshot.json"), []byte("not even json"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, without, reopen(), "with a stale snapshot.json beside the segments")
}

// TestSaveStableAcrossFreezeAndRecovery pins the JSON export as the
// whole-store equality oracle: Store.Save writes the same bytes whether the
// content sits in the heap, in frozen segments, or in a store recovered from
// those segments at a different shard count.
func TestSaveStableAcrossFreezeAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 4, 12)
	if err := st.MergeTupleAnnotations("t-1", "merged", 0, nil,
		[]core.Annotation{{Key: "activity", Value: "eat", Confidence: 0.95, Source: "x"}}); err != nil {
		t.Fatal(err)
	}
	export := func(st *store.Store, name string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	heap := export(st, "heap.json")
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	if frozen := export(st, "frozen.json"); !bytes.Equal(heap, frozen) {
		t.Fatalf("export changed across a freeze: %d bytes before, %d after", len(heap), len(frozen))
	}
	tier.Close()
	st2, tier2, _, err := Recover(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if recovered := export(st2, "recovered.json"); !bytes.Equal(heap, recovered) {
		t.Fatalf("export changed across recovery at another shard count: %d bytes before, %d after", len(heap), len(recovered))
	}
}

func TestReplaceAfterFreezeSupersedes(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	populate(t, st, 2, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	// Replace a frozen interpretation wholesale; the tier must stop serving
	// the stale run immediately.
	repl := []*core.EpisodeTuple{testTuple("t-0", 7)}
	if err := st.PutStructured(&core.StructuredTrajectory{
		ID: "t-0", ObjectID: "obj-0", Interpretation: "merged", Tuples: repl,
	}); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Structured("t-0", "merged")
	if !ok || len(got.Tuples) != 1 {
		t.Fatalf("replace not visible: %d tuples", len(got.Tuples))
	}
	// Scans must not resurrect the stale frozen tuples.
	count := 0
	st.VisitStructuredTuples("merged", func(ref store.TupleRef, tp core.EpisodeTuple) bool {
		if ref.TrajectoryID == "t-0" {
			count++
		}
		return true
	})
	if count != 1 {
		t.Fatalf("scan sees %d t-0 tuples, want 1", count)
	}
	want := capture(st)
	// Re-freeze and recover: the replacement (and the dead run's shadow)
	// must persist.
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, want, capture(st), "after re-freeze")
	tier.Close()
	st2, tier2, _, err := Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	mustEqualState(t, want, capture(st2), "after recovery")
}

// TestFreezeRacesKeyedReads pins the commit step of the freeze protocol: a
// key's frozen base advances in the same stripe-locked step that indexes the
// run covering it, so reads below the base and merges into frozen tuples
// never come back short while freezes run beside them.
func TestFreezeRacesKeyedReads(t *testing.T) {
	st, tier := newTiered(t, t.TempDir(), 4)
	defer tier.Close()
	const objects, rounds = 6, 150
	populate(t, st, objects, 4) // 4 records, 2 episodes, 2 merged tuples each
	var written atomic.Int64    // rounds every key has fully appended
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			anns := []core.Annotation{{Key: "activity", Value: "eat", Confidence: 0.9, Source: "x"}}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n := int(written.Load())
				obj, traj := fmt.Sprintf("obj-%d", i%objects), fmt.Sprintf("t-%d", i%objects)
				if got := len(st.Records(obj)); got < 4+n {
					t.Errorf("Records(%s) = %d, want >= %d", obj, got, 4+n)
					return
				}
				if got := len(st.Episodes(traj)); got < 2+n {
					t.Errorf("Episodes(%s) = %d, want >= %d", traj, got, 2+n)
					return
				}
				if err := st.MergeTupleAnnotations(traj, "merged", (i+r)%(2+n), nil, anns); err != nil {
					t.Errorf("merge into %s[%d]: %v", traj, (i+r)%(2+n), err)
					return
				}
			}
		}(r)
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		for o := 0; o < objects; o++ {
			obj, traj := fmt.Sprintf("obj-%d", o), fmt.Sprintf("t-%d", o)
			st.PutRecords([]gps.Record{{ObjectID: obj, Position: geo.Pt(float64(round), float64(o)), Time: ts(100 + round)}})
			if err := errors.Join(st.AppendEpisodes(traj, testEpisode(traj, 2+round)),
				st.AppendStructuredTuples(traj, obj, "merged", testTuple(traj, 2+round))); err != nil {
				t.Error(err)
			}
		}
		written.Store(int64(round + 1))
		if err := tier.Freeze(st); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestRecoverRefusesOtherFormatVersion pins that a data directory whose
// segment another release wrote — the previous format version, which held
// copies of trajectory records, a later one, a version-1 footer, whose
// times wrap outside 1678–2262, or a footer of version 2, 3 or 4 — is
// refused with an error naming the segment file and both versions, and
// left byte-for-byte untouched, WAL tail and a stale freeze temp file
// included.
func TestRecoverRefusesOtherFormatVersion(t *testing.T) {
	fileVersion := func(v uint32) func([]byte) {
		return func(data []byte) { binary.LittleEndian.PutUint32(data[4:8], v) }
	}
	// footerVersionOf rewrites the footer's version byte and re-frames it
	// in place: the frame keeps its size, so the trailer still finds it.
	footerVersionOf := func(v byte) func([]byte) {
		return func(data []byte) {
			off := len(data) - trailerSize - int(binary.LittleEndian.Uint32(data[len(data)-trailerSize:]))
			payload, _, err := wal.ParseFrame(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			payload[0] = v
			copy(data[off:], wal.AppendFrame(nil, payload))
		}
	}
	cases := []struct {
		format    string
		got, want uint32
		rewrite   func([]byte)
	}{
		{"segment", formatVersion - 1, formatVersion, fileVersion(formatVersion - 1)},
		{"segment", formatVersion + 1, formatVersion, fileVersion(formatVersion + 1)},
		{"segment footer", 1, footerVersion, footerVersionOf(1)},
		{"segment footer", 2, footerVersion, footerVersionOf(2)}, // strings inline, no run spans
		{"segment footer", 3, footerVersion, footerVersionOf(3)}, // no column frames
		{"segment footer", 4, footerVersion, footerVersionOf(4)}, // a stored summary
	}
	for _, c := range cases {
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
		populate(t, st, 3, 4) // a WAL tail beside the segment
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		tier.Close()
		paths, _, _, err := listSegmentFiles(dir)
		if err != nil || len(paths) != 1 {
			t.Fatalf("want 1 segment, got %v (%v)", paths, err)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		c.rewrite(data)
		if err := os.WriteFile(paths[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The temp file of an interrupted freeze must survive the refusal too.
		if err := os.WriteFile(paths[0]+".tmp", []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)
		_, _, _, err = Recover(dir, 4)
		if err == nil {
			t.Fatalf("%s version %d: recovered a segment at another format version", c.format, c.got)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s version %d: refused as corrupt: %v", c.format, c.got, err)
		}
		for _, want := range []string{paths[0], fmt.Sprintf("%s format version %d", c.format, c.got), fmt.Sprintf("reads version %d", c.want)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s version %d: error %q does not name %q", c.format, c.got, err, want)
			}
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s version %d: refused recovery changed the directory, now %v", c.format, c.got, dirListing(t, dir))
		}
	}
}

// dirContents maps every file name in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestTrajectoryRangesAcrossFreeze stores trajectories as ranges that lie
// wholly in the frozen prefix of their object's record run, straddle the
// frozen base, and lie wholly in the heap tail, and checks that Trajectory,
// TrajectoryLen and TrajectoryExtent resolve each to exactly its positions
// of the run — live, after freezing the rest, and after recovery.
func TestTrajectoryRangesAcrossFreeze(t *testing.T) {
	dir := t.TempDir()
	st, tier := newTiered(t, dir, 4)
	put := func(from, n int) {
		t.Helper()
		recs := make([]gps.Record, n)
		for i := range recs {
			recs[i] = gps.Record{ObjectID: "o", Position: geo.Pt(float64(from+i), 0.5), Time: ts(from + i)}
		}
		if pos := st.PutRecords(recs); pos != from {
			t.Fatalf("PutRecords placed the batch at %d, want %d", pos, from)
		}
	}
	put(0, 10)
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	put(10, 10)
	ranges := map[string][2]int{"cold": {2, 5}, "straddle": {7, 6}, "heap": {12, 4}, "empty": {10, 0}}
	for id, r := range ranges {
		if err := st.PutTrajectory(id, "o", r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *store.Store, label string) {
		t.Helper()
		run := st.Records("o")
		if len(run) != 20 {
			t.Fatalf("%s: %d records, want 20", label, len(run))
		}
		for id, r := range ranges {
			want := run[r[0] : r[0]+r[1]]
			tr, ok := st.Trajectory(id)
			if !ok || tr.ObjectID != "o" || len(tr.Records) != r[1] || (r[1] > 0 && !slices.Equal(tr.Records, want)) {
				t.Fatalf("%s: Trajectory(%s) = %+v, want positions [%d,%d)", label, id, tr, r[0], r[0]+r[1])
			}
			if n, ok := st.TrajectoryLen(id); !ok || n != r[1] {
				t.Fatalf("%s: TrajectoryLen(%s) = %d", label, id, n)
			}
			obj, n, first, last, ok := st.TrajectoryExtent(id)
			if !ok || obj != "o" || n != r[1] || (n > 0 && (first != want[0].Time || last != want[n-1].Time)) ||
				(n == 0 && (!first.IsZero() || !last.IsZero())) {
				t.Fatalf("%s: TrajectoryExtent(%s) = %s %d %v %v", label, id, obj, n, first, last)
			}
		}
	}
	check(st, "live")
	if err := tier.Freeze(st); err != nil {
		t.Fatal(err)
	}
	check(st, "after the second freeze")
	tier.Close()
	st2, tier2, _, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	check(st2, "recovered")
}
