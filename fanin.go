package semitri

import (
	"sync"
	"sync/atomic"

	"semitri/internal/gps"
	"semitri/internal/store"
)

// This file implements the concurrent fan-in drivers over StreamProcessor:
// they spread a single interleaved record feed across worker goroutines,
// sharding by object id so each object's records keep arriving in order (the
// invariant Add's parity guarantee depends on) while different objects'
// records are cleaned, segmented and annotated in parallel.

// workerFor routes an object id to one of n workers, with the same hash the
// store stripes its tables by.
func workerFor(objectID string, n int) int {
	return int(store.KeyHash(objectID) % uint32(n))
}

// FanIn drains the records channel through Add using `workers` goroutines.
// Records are sharded by object id: one object's records are always fed by
// the same worker, preserving their order, while different objects proceed
// in parallel. FanIn returns when the channel is closed and every routed
// record has been ingested — or on the first Add error, without waiting for
// the channel to close. On the error path a background goroutine keeps
// draining the channel so a producer blocked on a send is never stuck; the
// producer should notice the early return, stop sending and close the
// channel, at which point the drainer exits.
//
// onEvents, if non-nil, is called with each Add call's events from the
// worker goroutine that produced them; it must be safe for concurrent use.
// FanIn does not Close the processor — call Close after it returns.
func (sp *StreamProcessor) FanIn(records <-chan gps.Record, workers int, onEvents func([]StreamEvent)) error {
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
				go drain(records)
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
				events, err := sp.Add(r)
				if len(events) > 0 && onEvents != nil {
					onEvents(events)
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					// Keep draining so the router never blocks on this lane.
					drain(lanes[i])
					return
				}
			}
		}(i)
	}
	routed := true
	for r := range records {
		if failed.Load() {
			routed = false
			break
		}
		lanes[workerFor(r.ObjectID, workers)] <- r
	}
	if !routed {
		go drain(records)
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

// drain consumes a record channel until it is closed.
func drain(records <-chan gps.Record) {
	for range records {
	}
}
