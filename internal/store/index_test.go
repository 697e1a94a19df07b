package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
)

// recordingIndex captures notifications for assertion.
type recordingIndex struct {
	appended []TupleEvent
	replaced []string // "traj/interp(n)"
	updated  []TupleEvent
}

func (r *recordingIndex) TuplesAppended(events []TupleEvent) {
	r.appended = append(r.appended, events...)
}
func (r *recordingIndex) StructuredReplaced(traj, obj, interp string, events []TupleEvent) {
	r.replaced = append(r.replaced, traj+"/"+interp)
}
func (r *recordingIndex) TupleUpdated(ev TupleEvent) { r.updated = append(r.updated, ev) }

// orderIndex logs each notification as "name:hook" into a log shared by
// several indexes, for asserting the attach order.
type orderIndex struct {
	name string
	log  *[]string
}

func (o *orderIndex) TuplesAppended([]TupleEvent) { *o.log = append(*o.log, o.name+":append") }
func (o *orderIndex) StructuredReplaced(_, _, _ string, _ []TupleEvent) {
	*o.log = append(*o.log, o.name+":replace")
}
func (o *orderIndex) TupleUpdated(TupleEvent) { *o.log = append(*o.log, o.name+":update") }

// TestAttachIndexFansOutInOrder: every attached index sees every
// notification, in argument order, and nil entries are skipped.
func TestAttachIndexFansOutInOrder(t *testing.T) {
	s := New()
	var log []string
	s.AttachIndex(&orderIndex{"a", &log}, nil, &orderIndex{"b", &log})
	if err := s.AppendStructuredTuples("t1", "o1", "merged", mkStopTuple(t0, t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := s.MergeTupleAnnotations("t1", "merged", 0, nil,
		[]core.Annotation{{Key: "k", Value: "v", Confidence: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutStructured(&core.StructuredTrajectory{ID: "t1", ObjectID: "o1", Interpretation: "region"}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(log, " ")
	if want := "a:append b:append a:update b:update a:replace b:replace"; got != want {
		t.Fatalf("notifications %q, want %q", got, want)
	}
}

func mkStopTuple(start, end time.Time, anns ...core.Annotation) *core.EpisodeTuple {
	tp := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: start, TimeOut: end}
	for _, a := range anns {
		tp.Annotations.Add(a)
	}
	return tp
}

func TestIndexNotifications(t *testing.T) {
	s := New()
	rec := &recordingIndex{}
	s.AttachIndex(rec)

	tp := mkStopTuple(t0, t0.Add(time.Hour), core.Annotation{Key: "k", Value: "v", Confidence: 0.5})
	if err := s.AppendStructuredTuples("t1", "o1", "merged", tp); err != nil {
		t.Fatal(err)
	}
	if len(rec.appended) != 1 {
		t.Fatalf("appended events = %d", len(rec.appended))
	}
	ev := rec.appended[0]
	if ev.Ref != (TupleRef{TrajectoryID: "t1", ObjectID: "o1", Interpretation: "merged", Index: 0}) {
		t.Fatalf("ref = %+v", ev.Ref)
	}
	// The event carries a stable copy: later merges must not leak into it.
	if err := s.MergeTupleAnnotations("t1", "merged", 0, nil,
		[]core.Annotation{{Key: "k2", Value: "v2", Confidence: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if ev.Tuple.Annotations.Len() != 1 {
		t.Fatal("append event snapshot was mutated by a later merge")
	}
	if len(rec.updated) != 1 || rec.updated[0].Tuple.Annotations.Value("k2") != "v2" {
		t.Fatalf("updated events = %+v", rec.updated)
	}
	if err := s.PutStructured(&core.StructuredTrajectory{ID: "t1", ObjectID: "o1", Interpretation: "region"}); err != nil {
		t.Fatal(err)
	}
	if len(rec.replaced) != 1 || rec.replaced[0] != "t1/region" {
		t.Fatalf("replaced events = %v", rec.replaced)
	}
	// Detach: no further events.
	s.AttachIndex(nil)
	if err := s.AppendStructuredTuples("t1", "o1", "merged", mkStopTuple(t0, t0)); err != nil {
		t.Fatal(err)
	}
	if len(rec.appended) != 1 {
		t.Fatal("detached index still received events")
	}
}

func TestTupleAccessors(t *testing.T) {
	s := New()
	a := mkStopTuple(t0, t0.Add(time.Hour), core.Annotation{Key: "k", Value: "v", Confidence: 0.5})
	b := mkStopTuple(t0.Add(time.Hour), t0.Add(2*time.Hour))
	if err := s.AppendStructuredTuples("t1", "o1", "merged", a, b); err != nil {
		t.Fatal(err)
	}
	got, ok := s.AppendTuplesAt("t1", "merged", []int{1, 0, -1, 2}, nil, nil)
	if len(got) != 4 || !ok[0] || !got[0].TimeIn.Equal(t0.Add(time.Hour)) || !ok[1] || !got[1].TimeIn.Equal(t0) {
		t.Fatalf("AppendTuplesAt = %+v, %v", got, ok)
	}
	if ok[2] || ok[3] {
		t.Fatalf("AppendTuplesAt found positions -1 or 2: %v", ok)
	}
	// The returned copy is stable under concurrent-style mutation.
	if err := s.MergeTupleAnnotations("t1", "merged", 0, nil,
		[]core.Annotation{{Key: "x", Value: "y", Confidence: 1}}); err != nil {
		t.Fatal(err)
	}
	if got[1].Annotations.Len() != 1 {
		t.Fatal("AppendTuplesAt copy aliased the stored annotation set")
	}
	if _, ok := s.AppendTuplesAt("t9", "merged", []int{0}, nil, nil); ok[0] {
		t.Fatal("missing trajectory should miss")
	}
	if n := s.TupleCount("t1", "merged"); n != 2 {
		t.Fatalf("TupleCount = %d", n)
	}
	if n := s.TupleCount("t9", "merged"); n != 0 {
		t.Fatalf("TupleCount missing = %d", n)
	}
	st, found := s.Structured("t1", "merged")
	if !found || st.ObjectID != "o1" || len(st.Tuples) != 2 || st.Tuples[0].Annotations.Value("x") != "y" {
		t.Fatalf("Structured = %+v, %v", st, found)
	}

	seen := 0
	s.VisitStructuredTuples("merged", func(ref TupleRef, tp core.EpisodeTuple) bool {
		seen++
		return false // early stop
	})
	if seen != 1 {
		t.Fatalf("early stop visited %d", seen)
	}
	seen = 0
	s.VisitStructuredTuples("", func(ref TupleRef, tp core.EpisodeTuple) bool { seen++; return true })
	if seen != 2 {
		t.Fatalf("visit all = %d", seen)
	}
}

func TestObjects(t *testing.T) {
	s := New()
	s.PutRecords(sampleTrajectory("b-T0", "b", 1).Records)
	putSampleTrajectory(t, s, "a-T0", "a", 3)
	got := s.Objects()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Objects = %v", got)
	}
}

// TestSaveAtomic checks the crash-safe write: saving over an existing file
// replaces it whole, and no temp files are left behind.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap", "store.json")

	s := New()
	s.PutRecords(sampleTrajectory("o1-T0", "o1", 5).Records)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s.PutRecords(sampleTrajectory("o2-T0", "o2", 3).Records)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// The overwrite must hold exactly what a Save to a fresh path writes.
	fresh := filepath.Join(dir, "fresh.json")
	if err := s.Save(fresh); err != nil {
		t.Fatal(err)
	}
	over, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(over, want) {
		t.Fatalf("overwritten export has %d bytes, a fresh one %d", len(over), len(want))
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir should hold exactly the snapshot, got %d entries", len(entries))
	}
}

// TestVisitShardTuples asserts the per-stripe cut visit the parallel scan
// fan-out uses is an exact partition of VisitStructuredTuples: visiting
// every stripe of one cut yields each tuple exactly once, out-of-range
// stripes are inert, and an early stop propagates as false.
func TestVisitShardTuples(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 40; i++ {
		traj := string(rune('a'+i%11)) + "-traj"
		obj := "o" + string(rune('0'+i%5))
		if err := s.AppendStructuredTuples(traj, obj, "merged",
			mkStopTuple(t0.Add(time.Duration(i)*time.Minute), t0.Add(time.Duration(i+1)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	whole := map[TupleRef]int{}
	s.VisitStructuredTuples("merged", func(ref TupleRef, _ core.EpisodeTuple) bool {
		whole[ref]++
		return true
	})
	if len(whole) == 0 {
		t.Fatal("workload produced no tuples")
	}
	var c Cut
	s.TakeCut("merged", &c)
	sharded := map[TupleRef]int{}
	for sh := 0; sh < s.ShardCount(); sh++ {
		if !c.VisitShard(sh, TupleRead{}, func(ref TupleRef, _ *core.EpisodeTuple) bool {
			sharded[ref]++
			return true
		}) {
			t.Fatalf("shard %d visitor reported early stop without one", sh)
		}
	}
	if len(sharded) != len(whole) {
		t.Fatalf("shard visitors saw %d refs, whole-store visitor %d", len(sharded), len(whole))
	}
	for ref, n := range whole {
		if sharded[ref] != n {
			t.Fatalf("ref %+v seen %d times across shards, want %d", ref, sharded[ref], n)
		}
	}
	if c.VisitShard(-1, TupleRead{}, func(TupleRef, *core.EpisodeTuple) bool { return true }) != true {
		t.Fatal("out-of-range shard should be a complete (empty) visit")
	}
	stopped := 0
	if c.VisitShard(0, TupleRead{}, func(TupleRef, *core.EpisodeTuple) bool {
		stopped++
		return false
	}) {
		t.Fatal("early stop not propagated")
	}
	if stopped != 1 {
		t.Fatalf("visitor called %d times after stop, want 1", stopped)
	}
}
