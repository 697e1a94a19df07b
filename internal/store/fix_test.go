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

// TestHeapBytesPerRecord pins the packed layout's footprint: every fix held
// in the records table and again in a trajectory covering it. Two 56-byte
// gps.Record copies (plus the record run's growth slack) cost ~126 B; two
// 32-byte packed fixes stay under 80.
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
			recs := make([]gps.Record, trajLen)
			for i := range recs {
				j := k*trajLen + i
				recs[i] = gps.Record{ObjectID: obj, Position: geo.Pt(float64(j), float64(o)), Time: t0.Add(time.Duration(j) * time.Second)}
			}
			if err := s.PutTrajectory(&gps.RawTrajectory{ID: fmt.Sprintf("%s-T%04d", obj, k), ObjectID: obj, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (objects * perObject)
	t.Logf("live heap: %.1f B/record", perRecord)
	if perRecord > 80 {
		t.Fatalf("live heap %.1f B/record, want <= 80", perRecord)
	}
}

func TestPutTrajectoryRefusesForeignRecord(t *testing.T) {
	s := New()
	tr := sampleTrajectory("u1-T0", "u1", 3)
	tr.Records[1].ObjectID = "u2"
	if err := s.PutTrajectory(tr); err == nil {
		t.Fatal("a trajectory holding another object's record must be refused")
	}
	if n := s.TrajectoryCount(); n != 0 {
		t.Fatalf("refused trajectory stored: TrajectoryCount = %d", n)
	}
}
