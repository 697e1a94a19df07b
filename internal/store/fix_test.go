package store

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
)

// TestPutRecordsDoesNotAllocate pins the streaming path's per-record store
// write: a one-record put on a warm object appends one packed fix, with no
// allocation beyond the run's amortised growth.
func TestPutRecordsDoesNotAllocate(t *testing.T) {
	s := New()
	one := []gps.Record{{ObjectID: "o", Position: geo.Pt(1, 2), Time: t0}}
	for i := 0; i < 1000; i++ {
		s.PutRecords(one)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.PutRecords(one) }); allocs != 0 {
		t.Fatalf("one-record PutRecords allocates %.1f times per call, want 0", allocs)
	}
}

// TestHeapBytesPerRecord pins the packed layout's footprint: every fix is
// held once, in its object's record run, and the trajectories covering the
// run hold only ranges. Records plus a copy in each trajectory cost ~126 B
// as 56-byte gps.Records and 67.5 B as 32-byte packed fixes; one packed copy
// (plus the run's growth slack) stays under 45.
func TestHeapBytesPerRecord(t *testing.T) {
	const (
		objects   = 8
		perObject = 25_000
		trajLen   = 1_000
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := New()
	one := make([]gps.Record, 1)
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("obj-%d", o)
		for i := 0; i < perObject; i++ {
			one[0] = gps.Record{ObjectID: obj, Position: geo.Pt(float64(i), float64(o)), Time: t0.Add(time.Duration(i) * time.Second)}
			s.PutRecords(one)
		}
		for k := 0; k < perObject/trajLen; k++ {
			if err := s.PutTrajectory(fmt.Sprintf("%s-T%04d", obj, k), obj, k*trajLen, trajLen); err != nil {
				t.Fatal(err)
			}
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (objects * perObject)
	t.Logf("live heap: %.1f B/record", perRecord)
	if perRecord > 45 {
		t.Fatalf("live heap %.1f B/record, want <= 45", perRecord)
	}
}

// TestPutTrajectoryRefusesRangeOutsideRun pins that a trajectory covers only
// records its object already stores: a range past the run's end, over
// another object's run or with a negative bound is refused and stores
// nothing.
func TestPutTrajectoryRefusesRangeOutsideRun(t *testing.T) {
	s := New()
	s.PutRecords(sampleTrajectory("u1-T0", "u1", 3).Records)
	for _, r := range []struct {
		obj          string
		start, count int
	}{{"u1", 1, 3}, {"u1", 3, 1}, {"u2", 0, 1}, {"u1", -1, 1}, {"u1", 2, -1}} {
		if err := s.PutTrajectory("u1-T0", r.obj, r.start, r.count); err == nil {
			t.Fatalf("trajectory over [%d,%d) of %s stored; u1 holds 3 records, u2 none", r.start, r.start+r.count, r.obj)
		}
	}
	if n := s.TrajectoryCount(); n != 0 {
		t.Fatalf("refused trajectory stored: TrajectoryCount = %d", n)
	}
	if err := s.PutTrajectory("u1-T0", "u1", 0, 3); err != nil {
		t.Fatalf("trajectory over the whole run refused: %v", err)
	}
}
