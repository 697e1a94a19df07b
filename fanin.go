package semitri

import (
	"iter"
	"sync"
	"sync/atomic"

	"semitri/internal/gps"
	"semitri/internal/store"
)

// This file implements the concurrent fan-in driver over StreamProcessor:
// it pulls a single interleaved record sequence and spreads it across worker
// goroutines, sharding by object id so each object's records keep arriving
// in order (the invariant Add's parity guarantee depends on) while different
// objects' records are cleaned, segmented and annotated in parallel.

// workerFor routes an object id to one of n workers, with the same hash the
// store stripes its tables by.
func workerFor(objectID string, n int) int {
	return int(store.KeyHash(objectID) % uint32(n))
}

// FanIn pulls the records sequence through Add using `workers` goroutines.
// Records are sharded by object id: one object's records are always fed by
// the same worker, preserving their order, while different objects proceed
// in parallel. The sequence is pulled on the caller's goroutine. FanIn
// returns when the sequence ends and every routed record has been ingested,
// or after the first Add error, once it has stopped pulling and the records
// already routed have been discarded.
//
// onEvents, if non-nil, is called with each Add call's events from the
// worker goroutine that produced them; it must be safe for concurrent use.
// FanIn does not Close the processor — call Close after it returns.
func (sp *StreamProcessor) FanIn(records iter.Seq[gps.Record], workers int, onEvents func([]StreamEvent)) error {
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		// No fan-out: ingest inline, skipping the channel hop per record.
		for r := range records {
			events, err := sp.Add(r)
			if len(events) > 0 && onEvents != nil {
				onEvents(events)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	lanes := make([]chan gps.Record, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = make(chan gps.Record, 128)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := range lanes[i] {
				if errs[i] != nil {
					continue // keep draining so the router never blocks on this lane
				}
				events, err := sp.Add(r)
				if len(events) > 0 && onEvents != nil {
					onEvents(events)
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}(i)
	}
	for r := range records {
		if failed.Load() {
			break
		}
		lanes[workerFor(r.ObjectID, workers)] <- r
	}
	for _, lane := range lanes {
		close(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
