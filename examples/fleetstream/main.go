// Fleetstream: ingest an interleaved multi-object GPS feed concurrently.
//
// Where examples/streaming replays one user's day record by record, this
// example plays back a whole fleet of users at once: their records arrive
// interleaved on a single feed — the shape of a real middleware ingest — and
// StreamProcessor.FanIn shards that feed by object id across worker
// goroutines. Each object's records keep their order (so the
// parity guarantee still holds), while different objects run the full
// clean → segment → episode → annotate → append chain in parallel on the
// per-object streaming engine and the lock-striped store.
//
// Run with:
//
//	go run ./examples/fleetstream
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"semitri"
	"semitri/internal/gps"
	"semitri/internal/workload"
)

func main() {
	// 1. Build the 3rd-party sources and a day of records for several users.
	city, err := workload.NewCity(workload.DefaultCityConfig(42, 4000))
	if err != nil {
		log.Fatal(err)
	}
	const users = 6
	day, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(users, 1, 7))
	if err != nil {
		log.Fatal(err)
	}
	records := day.Records() // interleaved across objects, per-object time order
	fmt.Printf("replaying %d GPS records of %d users as one interleaved feed\n\n",
		len(records), len(day.Objects))

	// 2. Build the pipeline and open a stream over it.
	pipeline, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse,
		Roads:   city.Roads,
		POIs:    city.POIs,
	}, semitri.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	stream := pipeline.NewStream()

	// 3. Fan the feed across 4 ingestion workers. The onEvents callback runs
	//    on worker goroutines, so it only touches atomics.
	var episodes, trajectories atomic.Int64
	feed := make(chan gps.Record, 128)
	done := make(chan error, 1)
	go func() {
		done <- stream.FanIn(feed, 4, func(events []semitri.StreamEvent) {
			for _, ev := range events {
				if ev.Episode != nil {
					episodes.Add(1)
				}
				if ev.TrajectoryClosed {
					trajectories.Add(1)
				}
			}
		})
	}()
	for _, r := range records {
		feed <- r
	}
	close(feed)
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	// 4. Close the stream and print each user's day in semantic form.
	result, err := stream.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d records into %d trajectories (%d stops, %d moves); "+
		"%d episodes were annotated mid-stream\n\n",
		result.Records, len(result.TrajectoryIDs), result.Stops, result.Moves, episodes.Load())
	for _, object := range day.Objects {
		for _, id := range pipeline.Store().TrajectoryIDs(object) {
			if merged, ok := pipeline.Store().Structured(id, semitri.InterpretationMerged); ok {
				fmt.Printf("%s\n  %s\n\n", id, merged.String())
			}
		}
	}
}
