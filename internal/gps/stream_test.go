package gps_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
)

// syntheticStream builds a messy multi-object stream: random walks with
// stationary phases, implausible outlier jumps, duplicate timestamps,
// signal-loss gaps and a UTC day crossing.
func syntheticStream(seed int64) []gps.Record {
	rng := rand.New(rand.NewSource(seed))
	var out []gps.Record
	base := time.Date(2026, 3, 14, 21, 0, 0, 0, time.UTC)
	for _, obj := range []string{"u1", "u2", "u3"} {
		t := base.Add(time.Duration(rng.Intn(600)) * time.Second)
		pos := geo.Pt(rng.Float64()*5000, rng.Float64()*5000)
		for i := 0; i < 400; i++ {
			switch {
			case rng.Float64() < 0.02:
				// Signal loss: jump far ahead in time.
				t = t.Add(45 * time.Minute)
			case rng.Float64() < 0.02:
				// Outlier: implausible position for this instant.
				out = append(out, gps.Record{
					ObjectID: obj,
					Position: geo.Pt(pos.X+50000, pos.Y+50000),
					Time:     t.Add(10 * time.Second),
				})
			case rng.Float64() < 0.02:
				// Duplicate timestamp.
				out = append(out, gps.Record{ObjectID: obj, Position: pos, Time: t})
			}
			if rng.Float64() < 0.3 {
				// Stationary phase: barely move for a while.
				pos = geo.Pt(pos.X+rng.Float64()*2, pos.Y+rng.Float64()*2)
			} else {
				pos = geo.Pt(pos.X+rng.Float64()*300-100, pos.Y+rng.Float64()*300-100)
			}
			t = t.Add(time.Duration(20+rng.Intn(40)) * time.Second)
			out = append(out, gps.Record{ObjectID: obj, Position: pos, Time: t})
		}
	}
	gps.SortRecords(out)
	return out
}

func streamClean(records []gps.Record, cfg gps.CleaningConfig) []gps.Record {
	sc := gps.NewStreamCleaner(cfg)
	var out []gps.Record
	for _, r := range records {
		out = append(out, sc.Add(r)...)
	}
	out = append(out, sc.FlushAll()...)
	// Emission interleaves objects differently from the sorted batch output
	// (each object's tail drains at flush time); per-object order is what
	// parity guarantees, so normalise before comparing.
	gps.SortRecords(out)
	return out
}

func TestStreamCleanerMatchesBatchClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		records := syntheticStream(seed)
		batch := gps.Clean(records, gps.DefaultCleaningConfig())
		stream := streamClean(records, gps.DefaultCleaningConfig())
		if !reflect.DeepEqual(batch, stream) {
			t.Fatalf("seed %d: stream cleaning diverged from batch: %d vs %d records",
				seed, len(batch), len(stream))
		}
	}
}

func TestStreamCleanerNoSmoothing(t *testing.T) {
	cfg := gps.CleaningConfig{MaxSpeed: 70, SmoothingWindow: 0}
	records := syntheticStream(7)
	if got, want := streamClean(records, cfg), gps.Clean(records, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream cleaning without smoothing diverged: %d vs %d records", len(got), len(want))
	}
}

func TestStreamCleanerOutlierGateDisabled(t *testing.T) {
	// With MaxSpeed <= 0 the batch path keeps every sorted record, duplicate
	// timestamps included; the stream cleaner must match.
	cfg := gps.CleaningConfig{MaxSpeed: 0, SmoothingWindow: 2}
	records := syntheticStream(7)
	if got, want := streamClean(records, cfg), gps.Clean(records, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream cleaning with disabled outlier gate diverged: %d vs %d records", len(got), len(want))
	}
}

func streamSegment(records []gps.Record, cfg gps.SegmentationConfig, daily bool) []*gps.RawTrajectory {
	ss := gps.NewStreamSegmenter(cfg, daily)
	var out []*gps.RawTrajectory
	for _, r := range records {
		if ev := ss.Add(r); ev.Closed != nil {
			out = append(out, ev.Closed)
		}
	}
	return append(out, ss.FlushAll()...)
}

func trajectoriesEqual(t *testing.T, batch, stream []*gps.RawTrajectory) {
	t.Helper()
	if len(batch) != len(stream) {
		t.Fatalf("trajectory count: batch %d, stream %d", len(batch), len(stream))
	}
	byID := map[string]*gps.RawTrajectory{}
	for _, tr := range stream {
		byID[tr.ID] = tr
	}
	for _, want := range batch {
		got, ok := byID[want.ID]
		if !ok {
			t.Fatalf("stream missing trajectory %s", want.ID)
		}
		if got.ObjectID != want.ObjectID || !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("trajectory %s differs between batch and stream", want.ID)
		}
	}
}

func TestStreamSegmenterMatchesIdentifyTrajectories(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cleaned := gps.Clean(syntheticStream(seed), gps.DefaultCleaningConfig())
		cfg := gps.DefaultSegmentationConfig()
		trajectoriesEqual(t, gps.IdentifyTrajectories(cleaned, cfg), streamSegment(cleaned, cfg, false))
	}
}

func TestStreamSegmenterMatchesSplitDaily(t *testing.T) {
	// Days split in UTC whatever zone the records carry.
	for _, loc := range []*time.Location{time.UTC, time.FixedZone("", 5*3600)} {
		for seed := int64(1); seed <= 5; seed++ {
			cleaned := gps.Clean(syntheticStream(seed), gps.DefaultCleaningConfig())
			for i := range cleaned {
				cleaned[i].Time = cleaned[i].Time.In(loc)
			}
			cfg := gps.DefaultSegmentationConfig()
			trajectoriesEqual(t, gps.SplitDaily(cleaned, cfg), streamSegment(cleaned, cfg, true))
		}
	}
}

// TestStreamSegmenterDailyAddDoesNotAllocate pins the per-record day check:
// extending an open same-day segment compares integer days and formats
// nothing, so Add allocates only the segment's amortised growth.
func TestStreamSegmenterDailyAddDoesNotAllocate(t *testing.T) {
	ss := gps.NewStreamSegmenter(gps.DefaultSegmentationConfig(), true)
	at := time.Date(2026, 3, 14, 0, 0, 0, 0, time.UTC)
	r := gps.Record{ObjectID: "u1", Position: geo.Pt(0, 0), Time: at}
	for i := 0; i < 1000; i++ {
		r.Time = r.Time.Add(time.Second)
		ss.Add(r)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Time = r.Time.Add(time.Second)
		ss.Add(r)
	})
	if allocs != 0 {
		t.Fatalf("same-day Add allocates %.1f times per record, want 0", allocs)
	}
}

// TestStreamCleanerAddDoesNotAllocate pins the cleaner's steady state: the
// window shifts in place and Add returns the object's reused output buffer.
func TestStreamCleanerAddDoesNotAllocate(t *testing.T) {
	sc := gps.NewStreamCleaner(gps.DefaultCleaningConfig())
	r := gps.Record{ObjectID: "u1", Position: geo.Pt(0, 0), Time: time.Date(2026, 3, 14, 0, 0, 0, 0, time.UTC)}
	next := func() {
		r.Time = r.Time.Add(10 * time.Second)
		r.Position.X += 20
		if len(sc.Add(r)) != 1 {
			t.Fatal("a warm cleaner should emit one record per record")
		}
	}
	for i := 0; i < 10; i++ {
		sc.Add(r)
		r.Time = r.Time.Add(10 * time.Second)
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Fatalf("warm Add allocates %.1f times per record, want 0", allocs)
	}
}

// segmentFeed is one object's stream of n trajectories of 30 records, each
// preceded by a 3-record segment too short to keep when dropped is true, all
// separated by two-hour gaps.
func segmentFeed(n int, dropped bool) []gps.Record {
	sizes := []int{30}
	if dropped {
		sizes = []int{3, 30}
	}
	var out []gps.Record
	at := time.Date(2026, 3, 14, 0, 0, 0, 0, time.UTC)
	for k := 0; k < n; k++ {
		for _, size := range sizes {
			at = at.Add(2 * time.Hour)
			for i := 0; i < size; i++ {
				out = append(out, gps.Record{ObjectID: "u1",
					Position: geo.Pt(float64(100*k+i), float64(size)), Time: at.Add(time.Duration(i) * time.Minute)})
			}
		}
	}
	return out
}

// TestStreamSegmenterClosedRecordsStayOwned checks that the Records of a
// closed trajectory that is never handed back stay the caller's: later
// segments of the same object, kept or dropped, never write to them.
func TestStreamSegmenterClosedRecordsStayOwned(t *testing.T) {
	ss := gps.NewStreamSegmenter(gps.DefaultSegmentationConfig(), false)
	var kept []*gps.RawTrajectory
	var first []gps.Record
	for _, r := range segmentFeed(5, true) {
		if ev := ss.Add(r); ev.Closed != nil {
			kept = append(kept, ev.Closed)
			if len(kept) == 1 {
				first = append([]gps.Record(nil), ev.Closed.Records...)
			}
		}
	}
	if len(kept) != 4 {
		t.Fatalf("closed %d trajectories, want 4", len(kept))
	}
	if !reflect.DeepEqual(kept[0].Records, first) {
		t.Fatal("a retained trajectory's records changed after three more trajectories of its object")
	}
}

// TestStreamSegmenterRecycleReusesBuffer checks the hand-back: recycling
// changes no trajectory, and back-to-back trajectories of one object run on
// two buffers, a recycled one carrying the segment after next (the next one
// opens while the closed buffer is still out).
func TestStreamSegmenterRecycleReusesBuffer(t *testing.T) {
	cfg := gps.DefaultSegmentationConfig()
	for _, dropped := range []bool{false, true} {
		records := segmentFeed(6, dropped)
		want := streamSegment(records, cfg, false)
		ss := gps.NewStreamSegmenter(cfg, false)
		var got []*gps.RawTrajectory
		var buffers []*gps.Record
		for _, r := range records {
			if ev := ss.Add(r); ev.Closed != nil {
				buffers = append(buffers, &ev.Closed.Records[0])
				got = append(got, &gps.RawTrajectory{ID: ev.Closed.ID, ObjectID: ev.Closed.ObjectID,
					Records: append([]gps.Record(nil), ev.Closed.Records...)})
				ss.Recycle(ev.Closed)
			}
		}
		got = append(got, ss.FlushAll()...)
		trajectoriesEqual(t, want, got)
		for k := 2; k < len(buffers) && !dropped; k++ {
			if buffers[k] != buffers[k-2] {
				t.Fatalf("trajectory %d did not reuse the buffer of trajectory %d", k, k-2)
			}
		}
	}
}

func TestStreamSegmenterCommitEvent(t *testing.T) {
	cfg := gps.SegmentationConfig{MaxTimeGap: time.Hour, MinRecords: 3}
	ss := gps.NewStreamSegmenter(cfg, false)
	base := time.Date(2026, 3, 14, 12, 0, 0, 0, time.UTC)
	rec := func(i int) gps.Record {
		return gps.Record{ObjectID: "u1", Position: geo.Pt(float64(i), 0), Time: base.Add(time.Duration(i) * time.Minute)}
	}
	if ev := ss.Add(rec(0)); !ev.Opened || ev.Committed || ev.SegmentID != "" {
		t.Fatalf("first record: unexpected event %+v", ev)
	}
	ss.Add(rec(1))
	ev := ss.Add(rec(2))
	if !ev.Committed || ev.SegmentID != "u1-T0000" {
		t.Fatalf("third record should commit the segment, got %+v", ev)
	}
	if _, id, ok := ss.OpenRecords("u1"); !ok || id != "u1-T0000" {
		t.Fatalf("OpenRecords after commit: id %q ok %v", id, ok)
	}
	// A short second segment (2 records) must be dropped without consuming
	// an id, so the third segment is u1-T0001.
	ss.Add(rec(100))
	ss.Add(rec(101))
	ev = ss.Add(rec(300))
	if !ev.ClosedDropped || ev.Closed != nil {
		t.Fatalf("short segment should be dropped, got %+v", ev)
	}
	ss.Add(rec(301))
	if ev := ss.Add(rec(302)); ev.SegmentID != "u1-T0001" {
		t.Fatalf("dropped segment consumed an id: %+v", ev)
	}
}
