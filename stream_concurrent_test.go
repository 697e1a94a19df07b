package semitri_test

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"semitri"
	"semitri/internal/gps"
)

// objectOrder partitions records by object, preserving each object's order.
func objectOrder(records []gps.Record) map[string][]gps.Record {
	byObject := map[string][]gps.Record{}
	for _, r := range records {
		byObject[r.ObjectID] = append(byObject[r.ObjectID], r)
	}
	return byObject
}

// TestBatchStreamParityConcurrent is the concurrent variant of
// TestBatchStreamParity: records of 8 objects are interleaved from multiple
// goroutines (one per object, so per-object order is preserved while objects
// race freely through clean → segment → episode → annotate → append), and
// the resulting store must still match the batch-kernel oracle tuple for tuple.
// Run under -race this is the end-to-end data-race test for the per-object
// streaming engine and the lock-striped store.
func TestBatchStreamParityConcurrent(t *testing.T) {
	city := newTestCity(t, 1, 3000)
	records := peopleRecords(t, city, 8, 1, 5)
	byObject := objectOrder(records)
	if len(byObject) < 8 {
		t.Fatalf("workload produced %d objects, want >= 8", len(byObject))
	}

	want, wantResult := oracle(t, city, semitri.DefaultConfig(), records)

	stream := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := stream.NewStream()
	var episodeEvents atomic.Int64
	var wg sync.WaitGroup
	for _, recs := range byObject {
		wg.Add(1)
		go func(recs []gps.Record) {
			defer wg.Done()
			for _, r := range recs {
				events, err := sp.Add(r)
				if err != nil {
					t.Error(err)
					return
				}
				for _, ev := range events {
					if ev.Episode != nil {
						episodeEvents.Add(1)
					}
				}
			}
		}(recs)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	streamResult, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if episodeEvents.Load() == 0 {
		t.Fatal("concurrent stream never emitted an episode event")
	}

	assertResultParity(t, wantResult, streamResult)
	assertStoreParity(t, wantResult.TrajectoryIDs, want, stream.Store())
}

// TestFanInParity drives the same workload through the FanIn driver (which
// shards the interleaved sequence by object across 4 workers) and checks
// store parity with the oracle.
func TestFanInParity(t *testing.T) {
	city := newTestCity(t, 4, 3000)
	records := peopleRecords(t, city, 8, 1, 7)

	want, wantResult := oracle(t, city, semitri.DefaultConfig(), records)

	stream := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := stream.NewStream()
	var mu sync.Mutex
	var events []semitri.StreamEvent
	collect := func(evs []semitri.StreamEvent) {
		mu.Lock()
		events = append(events, evs...)
		mu.Unlock()
	}
	if err := sp.FanIn(slices.Values(records), 4, collect); err != nil {
		t.Fatal(err)
	}
	episodeEvents := 0
	for _, ev := range events {
		if ev.Episode != nil {
			episodeEvents++
			if ev.Tuple == nil {
				t.Fatal("episode event without merged tuple")
			}
		}
	}
	if episodeEvents == 0 {
		t.Fatal("fan-in never emitted an episode event")
	}
	streamResult, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	assertResultParity(t, wantResult, streamResult)
	assertStoreParity(t, wantResult.TrajectoryIDs, want, stream.Store())
}

// TestFanInStopsOnError runs FanIn on a closed processor, where every Add
// fails: FanIn must return the closed-stream error and stop pulling the
// sequence long before its end, inline and fanned out alike.
func TestFanInStopsOnError(t *testing.T) {
	city := newTestCity(t, 2, 2000)
	sp := newTestPipeline(t, city, semitri.DefaultConfig()).NewStream()
	// Closing an empty stream reports "no records", but it closes all the same.
	_, _ = sp.Close()
	ids := []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7"}
	_, closedErr := sp.Add(gps.Record{ObjectID: ids[0]})
	if closedErr == nil {
		t.Fatal("Add on a closed stream should fail")
	}
	const total = 1 << 20
	for _, workers := range []int{1, 4} {
		pulled := 0
		records := func(yield func(gps.Record) bool) {
			for pulled < total {
				pulled++
				if !yield(gps.Record{ObjectID: ids[pulled%len(ids)]}) {
					return
				}
			}
		}
		err := sp.FanIn(records, workers, nil)
		if !errors.Is(err, closedErr) {
			t.Fatalf("workers=%d: FanIn returned %v, want %v", workers, err, closedErr)
		}
		if pulled > total/64 {
			t.Fatalf("workers=%d: pulled %d of %d records after the first error", workers, pulled, total)
		}
	}
}

// TestConcurrentAddAfterClose asserts the close handshake: Adds racing with
// Close either complete fully or fail with the closed error — they must
// never ingest into a drained object.
func TestConcurrentAddAfterClose(t *testing.T) {
	city := newTestCity(t, 2, 2000)
	records := peopleRecords(t, city, 2, 1, 9)
	p := newTestPipeline(t, city, semitri.DefaultConfig())
	sp := p.NewStream()
	if _, err := sp.AddBatch(records); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var closedErrs atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sp.Add(records[0])
			if err != nil {
				closedErrs.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := closedErrs.Load(); got != 4 {
		t.Fatalf("%d of 4 post-Close Adds failed, want all", got)
	}
	if _, err := sp.Close(); err == nil {
		t.Fatal("second Close should fail")
	}
}
