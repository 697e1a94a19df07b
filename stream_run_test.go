package semitri_test

import (
	"math"
	"testing"
	"time"

	"semitri"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/obs"
)

// walkFix is fix i of a steady walk at 5 m/s, one fix every 10 s from
// start, around a 2 km square inside the test city: every fix is a move, so
// the episode tracker emits nothing while the walk goes on.
func walkFix(object string, start time.Time, i int) gps.Record {
	const side, step = 2000.0, 50.0
	d := math.Mod(float64(i)*step, 4*side)
	var p geo.Point
	switch {
	case d < side:
		p = geo.Pt(d, 0)
	case d < 2*side:
		p = geo.Pt(side, d-side)
	case d < 3*side:
		p = geo.Pt(3*side-d, side)
	default:
		p = geo.Pt(0, 4*side-d)
	}
	return gps.Record{
		ObjectID: object,
		Position: geo.Pt(4000+p.X, 4000+p.Y),
		Time:     start.Add(time.Duration(i) * 10 * time.Second),
	}
}

// walk feeds n fixes of a walk starting at start and fails the test on any
// error.
func walk(t *testing.T, sp *semitri.StreamProcessor, object string, start time.Time, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := sp.Add(walkFix(object, start, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamAddDoesNotAllocate pins the steady-state record path: once an
// object's buffers have grown to fit its trajectories, an Add that closes
// no episode or trajectory allocates nothing in the cleaner, segmenter,
// tracker or record staging. The store's own run still grows by a quarter
// now and then, a handful of allocations over the runs measured, which the
// per-run average rounds away; one allocation per record does not.
func TestStreamAddDoesNotAllocate(t *testing.T) {
	p := newTestPipeline(t, newTestCity(t, 2, 1000), semitri.DefaultConfig())
	sp := p.NewStream()
	day := time.Date(2026, 3, 14, 0, 0, 0, 0, time.UTC)
	// Two long walks an hour apart: the first grows one segment buffer and
	// the tracker, the second the other segment buffer. The third walk
	// reuses the first buffer.
	walk(t, sp, "u1", day, 1500)
	walk(t, sp, "u1", day.Add(5*time.Hour), 1500)
	third := day.Add(10 * time.Hour)
	walk(t, sp, "u1", third, 100)
	if ids := sp.Result().TrajectoryIDs; len(ids) != 2 {
		t.Fatalf("warm-up closed trajectories %v, want 2", ids)
	}
	i := 100
	allocs := testing.AllocsPerRun(1000, func() {
		events, err := sp.Add(walkFix("u1", third, i))
		if err != nil || len(events) > 0 {
			t.Fatalf("fix %d: events %v, err %v", i, events, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates %.1f times per record, want 0", allocs)
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRecordVisibility pins the freshness bound of the staged record
// runs: a cleaned record reaches the store at most 63 records of its object
// late, and Flush and Close store everything accepted.
func TestStreamRecordVisibility(t *testing.T) {
	p := newTestPipeline(t, newTestCity(t, 2, 1000), semitri.DefaultConfig())
	st := p.Store()
	sp := p.NewStream()
	w := semitri.DefaultConfig().Cleaning.SmoothingWindow
	start := time.Date(2026, 3, 14, 8, 0, 0, 0, time.UTC)
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := sp.Add(walkFix("u1", start, i)); err != nil {
			t.Fatal(err)
		}
		if got, min := st.RecordLen("u1"), i+1-w-63; got < min {
			t.Fatalf("after %d adds the store holds %d records, want >= %d", i+1, got, min)
		}
	}
	if _, err := sp.Flush("u1"); err != nil {
		t.Fatal(err)
	}
	if got := st.RecordLen("u1"); got != n {
		t.Fatalf("after Flush the store holds %d records, want %d", got, n)
	}
	walk(t, sp, "u1", start.Add(2*time.Hour), 77)
	res, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RecordLen("u1"); got != n+77 || res.Records != n+77 {
		t.Fatalf("after Close the store holds %d records and Result %d, want %d", got, res.Records, n+77)
	}
}

// TestStreamRunPositionGuard checks that a run displaced by another writer
// of the same object fails the Add that stores it, instead of leaving
// trajectory ranges that cover the wrong records.
func TestStreamRunPositionGuard(t *testing.T) {
	p := newTestPipeline(t, newTestCity(t, 2, 1000), semitri.DefaultConfig())
	sp := p.NewStream()
	start := time.Date(2026, 3, 14, 8, 0, 0, 0, time.UTC)
	walk(t, sp, "u1", start, 100)
	p.Store().PutRecords([]gps.Record{walkFix("u1", start.Add(-time.Hour), 0)})
	w := semitri.DefaultConfig().Cleaning.SmoothingWindow
	for i := 100; ; i++ {
		if i > 100+63+w {
			t.Fatal("no Add failed after another writer appended to the object")
		}
		if _, err := sp.Add(walkFix("u1", start, i)); err != nil {
			break
		}
	}
}

// TestStreamLateRecordCounted checks that a record older than its object's
// last accepted one is dropped and counted, and that nothing else is.
func TestStreamLateRecordCounted(t *testing.T) {
	p := newTestPipeline(t, newTestCity(t, 2, 1000), semitri.DefaultConfig())
	sp := p.NewStream()
	start := time.Date(2026, 3, 14, 8, 0, 0, 0, time.UTC)
	walk(t, sp, "u1", start, 20)
	add := func(r gps.Record) (late, records float64) {
		t.Helper()
		before := obs.Default().Numeric()
		if _, err := sp.Add(r); err != nil {
			t.Fatal(err)
		}
		after := obs.Default().Numeric()
		return after["semitri_ingest_late_dropped_total"] - before["semitri_ingest_late_dropped_total"],
			after["semitri_ingest_records_total"] - before["semitri_ingest_records_total"]
	}
	if late, records := add(walkFix("u1", start, 5)); late != 1 || records != 0 {
		t.Fatalf("late record: late_dropped +%v, records +%v, want +1 and +0", late, records)
	}
	if late, records := add(walkFix("u1", start, 20)); late != 0 || records != 1 {
		t.Fatalf("in-order record: late_dropped +%v, records +%v, want +0 and +1", late, records)
	}
}
