// Command semitri runs the full SeMiTri annotation pipeline on a GPS dataset
// (a CSV produced by cmd/semitri-gen or in the same "object,x,y,time"
// format) against a synthetic city's 3rd-party sources, and prints the
// resulting structured semantic trajectories. It can also persist the
// semantic trajectory store as JSON.
//
// Usage:
//
//	semitri -in people.csv [-profile people|vehicle] [-seed 1] [-pois 8000]
//	        [-store out/store.json] [-max-trajectories 10] [-summary]
//	        [-workers 4] [-stream] [-progress 5000]
//	        [-data-dir dir] [-trace "episodes kind=stop"]
//	        [-log-level info] [-log-format text|json]
//
// With -trace a relational statement (the internal/query/lang grammar) runs
// against the freshly ingested store and its EXPLAIN ANALYZE trace is
// printed: the chosen access path, per-stage wall times, rows in/out,
// candidates examined and any segment-prune decisions.
//
// With -data-dir the run is durable: every store mutation is written ahead
// to a group-committed log in the directory while the pipeline runs, and a
// final checkpoint (segment freeze + log truncation) is written on exit. The
// resulting directory can be served directly with
// `semitri-serve -data-dir dir` — including after a mid-run crash, which
// recovers everything up to the last group commit. Use a fresh directory
// per dataset: re-ingesting input into an already-populated directory
// appends duplicate records.
//
// With -in omitted the command generates a small demonstration dataset on
// the fly so it can be run with no arguments.
//
// Without -stream the whole input is read into memory, sorted and fed
// through the pipeline's one ingest path (semitri.Pipeline.ProcessRecords).
// With -stream the CSV is read line by line (never fully in memory), each
// record goes through semitri.StreamProcessor.Add as it is read, and
// ingestion progress is reported every -progress records. For input whose
// records are time-ordered per object (what semitri-gen writes, and what a
// live feed delivers) both leave the same store; records arriving out of
// order are dropped by the streaming cleaner, where the default mode sorts
// them first.
//
// -workers is the number of concurrent ingestion goroutines in both modes,
// sharded by object id so each object's records keep their order while
// different objects are annotated in parallel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"iter"
	"log/slog"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"semitri"
	"semitri/internal/analytics"
	"semitri/internal/core"
	"semitri/internal/geojson"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/query/lang"
	"semitri/internal/workload"
)

func main() {
	in := flag.String("in", "", "input CSV of GPS records (object,x,y,time); generated when empty")
	profile := flag.String("profile", "people", "annotation profile: people | vehicle")
	seed := flag.Int64("seed", 1, "seed for the synthetic city sources")
	pois := flag.Int("pois", 8000, "number of POIs in the synthetic city")
	storePath := flag.String("store", "", "write the semantic trajectory store as JSON to this path")
	geojsonPath := flag.String("geojson", "", "write the merged semantic trajectories as a GeoJSON FeatureCollection to this path")
	maxTrajectories := flag.Int("max-trajectories", 5, "maximum number of trajectories to print (0 = all)")
	summary := flag.Bool("summary", false, "print aggregate analytics instead of per-trajectory output")
	workers := flag.Int("workers", 0, "concurrent ingestion goroutines, records sharded by object (0 = profile default)")
	stream := flag.Bool("stream", false, "read the input line by line and ingest it as it is read, instead of loading and sorting it first")
	progress := flag.Int("progress", 5000, "with -stream, report ingestion progress every N records")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + final checkpoint); use a fresh directory per dataset")
	traceQ := flag.String("trace", "", "relational statement to run after ingestion with its EXPLAIN ANALYZE trace printed")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	if _, err := obs.InitLogger(os.Stderr, *logLevel, *logFormat); err != nil {
		fail(err)
	}
	logger := obs.Component("semitri")

	city, err := workload.NewCity(workload.DefaultCityConfig(*seed, *pois))
	if err != nil {
		fail(err)
	}

	cfg := semitri.DefaultConfig()
	if *profile == "vehicle" {
		cfg = semitri.VehicleConfig()
		cfg.DailySplit = false
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *dataDir != "" {
		cfg.Durability = semitri.Durability{Dir: *dataDir}
	}
	pipeline, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, cfg)
	if err != nil {
		fail(err)
	}
	if pipeline.Durable() && pipeline.Store().RecordCount() > 0 {
		logger.Warn("data dir already holds records; this run appends to the recovered store",
			"dir", *dataDir, "records", pipeline.Store().RecordCount())
	}

	start := time.Now()
	metricsBefore := obs.Default().Numeric()
	records := input(*in, city, *seed)
	var result *semitri.Result
	if *stream {
		result = runStream(pipeline, records, *progress, cfg.Workers)
	} else {
		result, err = pipeline.ProcessRecords(slices.Collect(records))
		if err != nil {
			fail(err)
		}
	}
	fmt.Printf("processed %d records into %d trajectories (%d stops, %d moves) in %v\n\n",
		result.Records, len(result.TrajectoryIDs), result.Stops, result.Moves,
		time.Since(start).Round(time.Millisecond))

	st := pipeline.Store()
	if *summary {
		fmt.Println("stop activity distribution (share of stop time):")
		fmt.Println("  " + analytics.AnnotationDistribution(st, semitri.InterpretationMerged, core.AnnPOICategory).String())
		fmt.Println("transport mode distribution (share of move time):")
		fmt.Println("  " + analytics.ModeDistribution(st, semitri.InterpretationLine).String())
		fmt.Println("land-use distribution (record-weighted):")
		fmt.Println("  " + analytics.LanduseDistribution(st, nil, nil).String())
		c := analytics.Compression(st)
		fmt.Printf("region-level compression: %d records -> %d distinct cells (%.1f%% saving)\n",
			c.GPSRecords, c.DistinctCells, c.Ratio*100)
	} else {
		limit := *maxTrajectories
		if limit <= 0 || limit > len(result.TrajectoryIDs) {
			limit = len(result.TrajectoryIDs)
		}
		for _, id := range result.TrajectoryIDs[:limit] {
			merged, ok := st.Structured(id, semitri.InterpretationMerged)
			if !ok {
				continue
			}
			fmt.Printf("%s\n  %s\n", id, merged.String())
			if cat, ok := merged.Category(core.AnnPOICategory); ok {
				fmt.Printf("  trajectory category (Eq. 8): %s\n", cat)
			}
			fmt.Println()
		}
	}
	if *storePath != "" {
		if err := st.Save(*storePath); err != nil {
			fail(err)
		}
		fmt.Printf("semantic trajectory store written to %s\n", *storePath)
	}
	if *geojsonPath != "" {
		fc := geojson.NewFeatureCollection()
		for _, id := range result.TrajectoryIDs {
			if merged, ok := st.Structured(id, semitri.InterpretationMerged); ok {
				for _, f := range geojson.Structured(merged).Features {
					fc.Add(f)
				}
			}
		}
		data, err := fc.MarshalIndent()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*geojsonPath, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("GeoJSON with %d features written to %s\n", fc.Len(), *geojsonPath)
	}
	// EXPLAIN ANALYZE: run the -trace statement against the ingested store
	// and print its execution trace.
	if *traceQ != "" {
		res, tr, err := lang.RunTraced(pipeline.QueryEngine(), *traceQ)
		if err != nil {
			fail(err)
		}
		rows := len(res.Matches)
		if res.Pairs != nil {
			rows = len(res.Pairs)
		}
		if res.Groups != nil {
			rows = len(res.Groups)
		}
		data, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace for %q (%d rows, plan %s):\n%s\n\n", *traceQ, rows, res.Plan, data)
	}
	// Latency breakdown mirrors Fig. 17.
	latencies := obs.IngestStageLatencies(metricsBefore, obs.Default().Numeric())
	fmt.Printf("latency per trajectory (avg over %d trajectories):\n", latencies[0].Trajectories)
	for _, l := range latencies {
		fmt.Printf("  %-22s %8.3f ms from %d timed calls\n",
			l.Stage, float64(l.PerTrajectory.Microseconds())/1000.0, l.Count)
	}
	fmt.Println("  (compute episode times 1 record in 64, scaled to all records, without the end-of-trajectory flush; the other stages time every call)")
	// Durable runs end with a checkpoint, leaving the data dir ready for
	// `semitri-serve -data-dir`.
	if err := pipeline.Close(); err != nil {
		fail(err)
	}
	if pipeline.Durable() {
		fmt.Printf("durable store checkpointed in %s (serve it with: semitri-serve -data-dir %s)\n", *dataDir, *dataDir)
	}
}

// runStream ingests the records through the online pipeline as they are
// read, and reports progress (records, episodes, trajectories and
// per-record throughput) every `every` records. With workers > 1 the records
// are fanned across that many concurrent ingestion goroutines, sharded by
// object id (per-object record order is preserved).
func runStream(pipeline *semitri.Pipeline, records iter.Seq[gps.Record], every, workers int) *semitri.Result {
	sp := pipeline.NewStream()
	var ingested int64
	var episodes, trajectories atomic.Int64
	startedAt := time.Now()
	logger := obs.Component("stream")
	report := func() {
		elapsed := time.Since(startedAt)
		rate := float64(ingested) / elapsed.Seconds()
		logger.Info("ingest progress",
			"records", ingested, "episodes", episodes.Load(),
			"trajectories", trajectories.Load(), "rec_per_s", int64(rate))
	}
	onEvents := func(events []semitri.StreamEvent) {
		for _, ev := range events {
			if ev.Episode != nil {
				episodes.Add(1)
			}
			if ev.TrajectoryClosed {
				trajectories.Add(1)
			}
		}
	}
	// FanIn pulls the sequence on this goroutine, so the counter needs no
	// synchronisation.
	counted := func(yield func(gps.Record) bool) {
		for r := range records {
			if !yield(r) {
				return
			}
			if ingested++; every > 0 && ingested%int64(every) == 0 {
				report()
			}
		}
	}
	if err := sp.FanIn(counted, workers, onEvents); err != nil {
		fail(err)
	}
	result, err := sp.Close()
	if err != nil {
		fail(err)
	}
	report()
	return result
}

// input yields the records of the -in CSV, read row by row, or, with no -in
// file, of a small generated demonstration people dataset. A read or parse
// error ends the command.
func input(in string, city *workload.City, seed int64) iter.Seq[gps.Record] {
	if in == "" {
		slog.Info("no -in file given; generating a small demonstration people dataset")
		ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(2, 2, seed+1))
		if err != nil {
			fail(err)
		}
		return slices.Values(ds.Records())
	}
	return func(yield func(gps.Record) bool) {
		f, err := os.Open(in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		for r, err := range gps.ReadCSV(f) {
			if err != nil {
				fail(err)
			}
			if !yield(r) {
				return
			}
		}
	}
}

func fail(err error) {
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
