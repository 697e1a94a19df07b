package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/store"
)

func ts(i int) time.Time {
	return time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
}

func testEpisode(i int) *episode.Episode {
	return &episode.Episode{
		TrajectoryID: "t1",
		ObjectID:     "o1",
		Kind:         episode.Kind(i % 2),
		StartIdx:     i,
		EndIdx:       i + 5,
		Start:        ts(i),
		End:          ts(i + 60),
		Center:       geo.Pt(float64(i), float64(i)+0.5),
		Bounds:       geo.NewRect(geo.Pt(float64(i), float64(i)), geo.Pt(float64(i)+10, float64(i)+10)),
		AvgSpeed:     1.25,
		MaxSpeed:     3.5,
		Distance:     42.75,
		RecordCount:  6,
	}
}

func testTuple(i int) *core.EpisodeTuple {
	tp := &core.EpisodeTuple{
		Kind: episode.Kind(i % 2),
		Place: &core.Place{
			ID: "p1", Kind: core.PointPlace, Name: "café", Category: "food",
			Extent: geo.NewRect(geo.Pt(1, 2), geo.Pt(3, 4)),
		},
		TimeIn:  ts(i),
		TimeOut: ts(i + 30),
		Episode: testEpisode(i),
	}
	tp.Annotations.Add(core.Annotation{Key: "poi_category", Value: "food", Confidence: 0.8, Source: "point"})
	tp.Annotations.Add(core.Annotation{Key: "landuse", Value: "urban", Confidence: 0.6, Source: "region"})
	return tp
}

// testMutations covers every op with rich payloads.
func testMutations() []store.Mutation {
	return []store.Mutation{
		{Op: store.MutPutRecords, ObjectID: "o1", Start: 7, Records: []gps.Record{
			{ObjectID: "o1", Position: geo.Pt(1.5, -2.5), Time: ts(0)},
			{ObjectID: "o1", Position: geo.Pt(3, 4), Time: ts(1)},
		}},
		{Op: store.MutPutTrajectory, ObjectID: "o1", TrajectoryID: "t1", Start: 1, Count: 1},
		{Op: store.MutPutEpisodes, TrajectoryID: "t1", Episodes: []*episode.Episode{testEpisode(0), testEpisode(1)}},
		{Op: store.MutAppendEpisodes, TrajectoryID: "t1", Start: 2, Episodes: []*episode.Episode{testEpisode(2)}},
		{Op: store.MutPutStructured, ObjectID: "o1", TrajectoryID: "t1", Interpretation: "merged",
			Tuples: []*core.EpisodeTuple{testTuple(0), testTuple(1)}},
		{Op: store.MutAppendTuples, ObjectID: "o1", TrajectoryID: "t1", Interpretation: "merged",
			Start: 2, Tuples: []*core.EpisodeTuple{testTuple(2)}},
		{Op: store.MutAppendTuples, ObjectID: "o1", TrajectoryID: "t1", Interpretation: "line"}, // zero tuples
		{Op: store.MutMergeTuple, TrajectoryID: "t1", Interpretation: "merged", Start: 1,
			Place:       &core.Place{ID: "p2", Kind: core.RegionPlace, Extent: geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1))},
			Annotations: []core.Annotation{{Key: "activity", Value: "eat", Confidence: 0.9, Source: "point"}}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for i, m := range testMutations() {
		e := &Encoder{}
		encodeMutation(e, m)
		got, err := decodeMutation(e.b, nil)
		if err != nil {
			t.Fatalf("mutation %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("mutation %d round trip mismatch:\n in  %+v\n out %+v", i, m, got)
		}
	}
}

// TestCodecRoundTripThroughDict encodes every op as a segment run, its
// strings indexes into one dictionary, and decodes it back: the mutation
// round-trips, the run reports its tuples' span, and an index past the end
// of a shorter dictionary is an error.
func TestCodecRoundTripThroughDict(t *testing.T) {
	var dict Dict
	var payloads [][]byte
	for _, m := range testMutations() {
		e := &Encoder{dict: &dict}
		encodeMutation(e, m)
		payloads = append(payloads, e.b)
	}
	for i, m := range testMutations() {
		got, span, err := DecodeRun(payloads[i], dict.Strings, nil, nil)
		if err != nil {
			t.Fatalf("mutation %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("mutation %d round trip mismatch:\n in  %+v\n out %+v", i, m, got)
		}
		if want := SpanOf(m.Tuples); span != want {
			t.Fatalf("mutation %d: span %+v, want %+v", i, span, want)
		}
		// Under a prefix of the dictionary a run decodes exactly when the
		// prefix holds every string it indexes: never under none (its
		// header has strings), always from some length on.
		decodes := false
		for n := 0; n <= len(dict.Strings); n++ {
			_, _, err := DecodeRun(payloads[i], dict.Strings[:n], nil, nil)
			if decodes && err != nil || n == 0 && err == nil {
				t.Fatalf("mutation %d under the first %d strings: %v (decodes under fewer: %v)", i, n, err, decodes)
			}
			decodes = err == nil
		}
	}
}

// TestCodecRoundTripsSmallestElements: element counts are bounded by the
// bytes left over each element's smallest encoding, so a frame ending in
// minimal elements — a bare tuple, annotations with one-letter or empty
// strings — must still decode.
func TestCodecRoundTripsSmallestElements(t *testing.T) {
	short := core.AnnotationSetOf([]core.Annotation{{Key: "k", Value: "v", Confidence: 0.5}, {Confidence: 1}})
	for i, m := range []store.Mutation{
		{Op: store.MutPutStructured, ObjectID: "o", TrajectoryID: "t", Interpretation: "i",
			Tuples: []*core.EpisodeTuple{{Kind: episode.Move}, {Kind: episode.Stop}}},
		{Op: store.MutAppendTuples, ObjectID: "o", TrajectoryID: "t", Interpretation: "i",
			Tuples: []*core.EpisodeTuple{{Kind: episode.Stop, Annotations: short}, {Kind: episode.Stop, Annotations: short}}},
		{Op: store.MutMergeTuple, TrajectoryID: "t", Interpretation: "i", Annotations: short.All()},
	} {
		e := &Encoder{}
		encodeMutation(e, m)
		got, err := decodeMutation(e.b, nil)
		if err != nil {
			t.Fatalf("mutation %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("mutation %d round trip mismatch:\n in  %+v\n out %+v", i, m, got)
		}
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	e := &Encoder{}
	encodeMutation(e, testMutations()[0])
	if _, err := decodeMutation(append(e.b, 0), nil); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
	if _, err := decodeMutation(e.b[:len(e.b)-1], nil); err == nil {
		t.Fatal("decode accepted truncated payload")
	}
	if _, err := decodeMutation(nil, nil); err == nil {
		t.Fatal("decode accepted empty payload")
	}
}

// logAll writes every mutation through a store with the log attached and
// returns that live store.
func logAll(t *testing.T, l *Log, ms []store.Mutation) *store.Store {
	t.Helper()
	live := store.New()
	live.AttachLog(l)
	for _, m := range ms {
		if err := live.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	return live
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushInterval: time.Hour}) // flush only on Sync
	if err != nil {
		t.Fatal(err)
	}
	live := logAll(t, l, testMutations())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn {
		t.Fatalf("unexpected stats %+v", stats)
	}
	if stats.FramesApplied == 0 {
		t.Fatal("no frames replayed")
	}
	assertSameContent(t, live, rec)
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ms := testMutations()
	live := logAll(t, l, ms[:4])

	// A failing save leaves the log untruncated and its error sticky on Err
	// until the next checkpoint succeeds.
	boom := errors.New("boom")
	if err := l.Checkpoint(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint with a failing save: err = %v, want boom", err)
	}
	if err := l.Err(); !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "checkpoint: ") {
		t.Fatalf("Err after a failed checkpoint = %v, want a checkpoint-prefixed boom", err)
	}
	if segs, _ := listSegments(dir); len(segs) != 2 || segs[0].Seq != 1 {
		t.Fatalf("failed checkpoint truncated the log: %+v", segs)
	}

	// The stub save stands in for the segment freeze: its recovery base is a
	// store holding whatever the directory's log holds when it runs. Before
	// capturing it commits two more mutations — frames racing the checkpoint,
	// which land behind the rotation point, so they end up in the base AND in
	// a retained segment and must replay idempotently.
	base := store.NewSharded(4)
	save := func() error {
		for _, m := range ms[4:6] {
			if err := live.Apply(m); err != nil {
				return err
			}
		}
		if err := l.Flush(); err != nil {
			return err
		}
		return ReplayInto(dir, base, &RecoverStats{})
	}
	if err := l.Checkpoint(save); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("Err after a successful checkpoint = %v, want nil", err)
	}
	// Two rotations so far (one per checkpoint): only the segment opened by
	// the last one survives truncation.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 || segs[0].Seq != 3 {
		t.Fatalf("segments after checkpoint = %+v (%v), want only seq 3", segs, err)
	}
	// Keep writing after the checkpoint, then recover from base + tail.
	for _, m := range ms[6:] {
		if err := live.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var stats RecoverStats
	if err := ReplayInto(dir, base, &stats); err != nil {
		t.Fatal(err)
	}
	if want := len(ms[4:]); stats.FramesApplied != want {
		t.Fatalf("tail replayed %d frames, want %d (the racing two plus the tail)", stats.FramesApplied, want)
	}
	assertSameContent(t, live, base)
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushInterval: time.Hour, SegmentSize: 512, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := store.New()
	live.AttachLog(l)
	for i := 0; i < 50; i++ {
		live.PutRecords([]gps.Record{{ObjectID: "o1", Position: geo.Pt(float64(i), 0), Time: ts(i)}})
		if err := l.Sync(); err != nil { // force per-record batches so segments fill
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}
	rec, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContent(t, live, rec)
}

func TestRecoverMissingAndEmptyDir(t *testing.T) {
	st, stats, err := Recover(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || st.RecordCount() != 0 || stats.Segments != 0 {
		t.Fatalf("missing dir: store=%v stats=%+v err=%v", st.RecordCount(), stats, err)
	}
	st, stats, err = Recover(t.TempDir(), 0)
	if err != nil || st.RecordCount() != 0 || stats.Segments != 0 {
		t.Fatalf("empty dir: store=%v stats=%+v err=%v", st.RecordCount(), stats, err)
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := store.New()
	live.AttachLog(l)
	live.PutRecords([]gps.Record{{ObjectID: "o1", Position: geo.Pt(1, 1), Time: ts(0)}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live.AttachLog(l2)
	live.PutRecords([]gps.Record{{ObjectID: "o1", Position: geo.Pt(2, 2), Time: ts(1)}})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments < 2 {
		t.Fatalf("reopen reused a segment: %+v", stats)
	}
	assertSameContent(t, live, rec)
}

// assertSameContent compares two stores' visible content. Times are
// compared as instants (the WAL codec restores times in UTC).
func assertSameContent(t *testing.T, a, b *store.Store) {
	t.Helper()
	if a.RecordCount() != b.RecordCount() {
		t.Fatalf("record count: %d vs %d", a.RecordCount(), b.RecordCount())
	}
	as, am := a.EpisodeCounts()
	bs, bm := b.EpisodeCounts()
	if as != bs || am != bm {
		t.Fatalf("episode counts: %d/%d vs %d/%d", as, am, bs, bm)
	}
	if a.StructuredCount() != b.StructuredCount() {
		t.Fatalf("structured count: %d vs %d", a.StructuredCount(), b.StructuredCount())
	}
	if !reflect.DeepEqual(a.Objects(), b.Objects()) {
		t.Fatalf("objects: %v vs %v", a.Objects(), b.Objects())
	}
	for _, obj := range a.Objects() {
		ra, rb := a.Records(obj), b.Records(obj)
		if len(ra) != len(rb) {
			t.Fatalf("object %s: %d vs %d records", obj, len(ra), len(rb))
		}
		for i := range ra {
			if !recordsEqual(ra[i], rb[i]) {
				t.Fatalf("object %s record %d: %+v vs %+v", obj, i, ra[i], rb[i])
			}
		}
	}
	ids := a.TrajectoryIDs("")
	if !reflect.DeepEqual(ids, b.TrajectoryIDs("")) {
		t.Fatalf("trajectory ids: %v vs %v", ids, b.TrajectoryIDs(""))
	}
	for _, id := range ids {
		ta, _ := a.Trajectory(id)
		tb, ok := b.Trajectory(id)
		if !ok || len(ta.Records) != len(tb.Records) || ta.ObjectID != tb.ObjectID {
			t.Fatalf("trajectory %s differs", id)
		}
		for i := range ta.Records {
			if !recordsEqual(ta.Records[i], tb.Records[i]) {
				t.Fatalf("trajectory %s record %d differs", id, i)
			}
		}
		ea, eb := a.Episodes(id), b.Episodes(id)
		if len(ea) != len(eb) {
			t.Fatalf("trajectory %s: %d vs %d episodes", id, len(ea), len(eb))
		}
		for i := range ea {
			if !episodesEqual(ea[i], eb[i]) {
				t.Fatalf("trajectory %s episode %d:\n %+v\n %+v", id, i, *ea[i], *eb[i])
			}
		}
		if !reflect.DeepEqual(a.Interpretations(id), b.Interpretations(id)) {
			t.Fatalf("trajectory %s interpretations: %v vs %v", id, a.Interpretations(id), b.Interpretations(id))
		}
		for _, interp := range a.Interpretations(id) {
			sa, _ := a.Structured(id, interp)
			sb, ok := b.Structured(id, interp)
			if !ok || sa.ObjectID != sb.ObjectID || len(sa.Tuples) != len(sb.Tuples) {
				t.Fatalf("%s/%s: object/length mismatch", id, interp)
			}
			for i := range sa.Tuples {
				if !tuplesEqualValue(sa.Tuples[i], sb.Tuples[i]) {
					t.Fatalf("%s/%s tuple %d:\n %+v\n %+v", id, interp, i, *sa.Tuples[i], *sb.Tuples[i])
				}
			}
		}
	}
}

func recordsEqual(a, b gps.Record) bool {
	return a.ObjectID == b.ObjectID && a.Position == b.Position && a.Time.Equal(b.Time)
}

func episodesEqual(a, b *episode.Episode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.TrajectoryID == b.TrajectoryID && a.ObjectID == b.ObjectID && a.Kind == b.Kind &&
		a.StartIdx == b.StartIdx && a.EndIdx == b.EndIdx &&
		a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.Center == b.Center && a.Bounds == b.Bounds &&
		a.AvgSpeed == b.AvgSpeed && a.MaxSpeed == b.MaxSpeed &&
		a.Distance == b.Distance && a.RecordCount == b.RecordCount
}

func tuplesEqualValue(a, b *core.EpisodeTuple) bool {
	if a.Kind != b.Kind || !a.TimeIn.Equal(b.TimeIn) || !a.TimeOut.Equal(b.TimeOut) {
		return false
	}
	if (a.Place == nil) != (b.Place == nil) || (a.Place != nil && *a.Place != *b.Place) {
		return false
	}
	if !reflect.DeepEqual(a.Annotations.All(), b.Annotations.All()) {
		return false
	}
	return episodesEqual(a.Episode, b.Episode)
}

// TestWALFramesInCallOrder pins that the log frames each mutation as it is
// handed over: two contiguous record runs of one object, an episodes
// mutation and another object's run become four frames, in call order, each
// decoding to the mutation that was logged.
func TestWALFramesInCallOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	run := func(obj string, start, n int) store.Mutation {
		m := store.Mutation{Op: store.MutPutRecords, ObjectID: obj, Start: start}
		for i := start; i < start+n; i++ {
			m.Records = append(m.Records, gps.Record{ObjectID: obj, Position: geo.Pt(float64(i), 1), Time: ts(i)})
		}
		return m
	}
	ms := []store.Mutation{
		run("a", 0, 3),
		run("a", 3, 2),
		{Op: store.MutPutEpisodes, TrajectoryID: "t1", Episodes: []*episode.Episode{testEpisode(0)}},
		run("b", 0, 4),
	}
	for _, m := range ms {
		l.LogMutation(m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %+v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	var got []store.Mutation
	for off := headerSize; off < len(data); {
		payload, n, err := ParseFrame(data[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		m, err := decodeMutation(payload, nil)
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		got = append(got, m)
		off += n
	}
	if len(got) != len(ms) {
		t.Fatalf("logged %d mutations, the segment holds %d frames", len(ms), len(got))
	}
	for i := range ms {
		if !reflect.DeepEqual(got[i], ms[i]) {
			t.Fatalf("frame %d:\n got  %+v\n want %+v", i, got[i], ms[i])
		}
	}
}
