// Command semitri-serve is the online face of the reproduction: it ingests
// a GPS dataset through the streaming pipeline and serves the semantic
// trajectory store over an HTTP JSON API — episode queries planned and
// executed by the query engine (internal/query), trajectory and per-object
// summaries, and an analytics snapshot. Ingestion runs in the background by
// default, so the API answers queries while records are still streaming in,
// the serving setting the paper's middleware is built for.
//
// Usage:
//
//	semitri-serve [-addr :8080] [-in people.csv] [-profile people|vehicle]
//	              [-seed 1] [-pois 8000] [-users 2] [-days 2]
//	              [-workers 4] [-wait] [-progress 20000]
//	              [-data-dir dir] [-flush-interval 50ms]
//	              [-fsync interval|always|never] [-checkpoint-interval 1m]
//	              [-query-parallelism 0] [-pprof]
//	              [-live] [-sse-heartbeat 10s] [-ingest-delay 0]
//	              [-history-interval 2s] [-history-samples 512]
//	              [-log-level info] [-log-format text|json]
//
// With -in omitted a small people dataset is generated, sized by -users and
// -days. With -wait the server only starts listening once ingestion has
// finished (useful for scripted probing). -ingest-delay throttles the
// producer (one pause per record) so live subscriptions have an ongoing
// stream to watch instead of ingestion finishing in milliseconds.
//
// With -data-dir the store is durable: every mutation is written ahead to a
// group-committed log in the directory and the store checkpoints on the
// -checkpoint-interval schedule, freezing the heap tail into an immutable
// binary segment served from mmap. On startup the server recovers whatever
// the directory holds (segments + log tail, tolerating a torn tail from a
// crash), so ingest → kill -9 → restart serves exactly the state the dead
// process had made durable. A restart with a non-empty data dir and no -in
// skips ingestion and serves the recovered store as is. On SIGINT/SIGTERM
// the server shuts down gracefully: ingestion stops, the stream processor
// closes, a final checkpoint is written, then the process exits.
//
// Endpoints (see internal/serve for the full parameter list):
//
//	GET /healthz             (503 + reasons when the WAL or checkpointing degrades)
//	GET /query/episodes?object=&kind=stop&ann=poi_category=item sale&from=&to=&minx=&...&trace=1
//	GET /query/relational?q=...&trace=1
//	GET /query/trajectories?object=
//	GET /query/objects?object=
//	GET /stats
//	GET /metrics             Prometheus text exposition
//	GET /metrics/history?name=...&window=10m   in-process ring time-series
//	GET /metrics/stream      sampled metric ticks over SSE
//	GET /subscribe?q=...     standing-query subscription over SSE (with -live)
//	GET /debug/dash          embedded live dashboard (sparklines, health, slow queries)
//	GET /debug/queries       slowest queries served so far
//	GET /debug/pprof/...     (with -pprof)
//	GET /debug/trace?seconds=N  runtime/trace capture (with -pprof)
package main

import (
	"context"
	"flag"
	"iter"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"semitri"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/serve"
	"semitri/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	in := flag.String("in", "", "input CSV of GPS records (object,x,y,time); generated when empty")
	profile := flag.String("profile", "people", "annotation profile: people | vehicle")
	seed := flag.Int64("seed", 1, "seed for the synthetic city sources (and the generated dataset)")
	pois := flag.Int("pois", 8000, "number of POIs in the synthetic city")
	users := flag.Int("users", 2, "users in the generated dataset (with -in empty)")
	days := flag.Int("days", 2, "days per user in the generated dataset (with -in empty)")
	workers := flag.Int("workers", 0, "concurrent ingestion goroutines, records sharded by object (0 = profile default)")
	wait := flag.Bool("wait", false, "finish ingestion before the server starts listening")
	progress := flag.Int("progress", 20000, "report ingestion progress every N records (0 = silent)")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only")
	flushInterval := flag.Duration("flush-interval", 50*time.Millisecond, "WAL group-commit window (with -data-dir)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: interval | always | never (with -data-dir)")
	checkpointInterval := flag.Duration("checkpoint-interval", time.Minute, "checkpoint schedule, 0 disables (with -data-dir)")
	queryParallelism := flag.Int("query-parallelism", 0, "query engine worker cap (0 = GOMAXPROCS, 1 = serial)")
	liveOn := flag.Bool("live", true, "enable /subscribe standing-query subscriptions over SSE")
	sseHeartbeat := flag.Duration("sse-heartbeat", serve.DefaultSSEHeartbeat, "heartbeat cadence of idle SSE connections")
	ingestDelay := flag.Duration("ingest-delay", 0, "pause between ingested records (throttles the producer for live demos)")
	historyInterval := flag.Duration("history-interval", obs.DefaultHistoryInterval, "metrics history sampling interval")
	historySamples := flag.Int("history-samples", 512, "samples retained per metric in the history ring")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof and /debug/trace runtime-trace capture under /debug/ on the serving mux")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	if _, err := obs.InitLogger(os.Stderr, *logLevel, *logFormat); err != nil {
		fail(err)
	}
	logger := obs.Component("serve")

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
	cfg.QueryParallelism = *queryParallelism
	if *dataDir != "" {
		cfg.Durability = semitri.Durability{
			Dir:                *dataDir,
			FlushInterval:      *flushInterval,
			Fsync:              *fsync,
			CheckpointInterval: *checkpointInterval,
		}
	}
	pipeline, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, cfg)
	if err != nil {
		fail(err)
	}
	if pipeline.Durable() {
		rs := pipeline.Recovery()
		st := pipeline.Store()
		logger.Info("recovered durable store",
			"dir", *dataDir,
			"records", st.RecordCount(), "trajectories", st.TrajectoryCount(),
			"structured", st.StructuredCount(),
			"cold_segments", rs.ColdSegments,
			"wal_segments", rs.Segments, "frames", rs.FramesApplied)
		if rs.Torn && rs.Quarantined == 0 {
			logger.Warn("wal tail was torn (crash mid-flush); kept the committed prefix and repaired the log")
		} else if rs.Torn {
			logger.Warn("wal was torn mid-log (disk corruption, not a crash); kept the prefix before the tear and quarantined later segments as *.quarantined",
				"quarantined", rs.Quarantined)
		}
	}
	// Request the engine before ingestion starts: the indexes then build
	// purely incrementally from the stream's append path (they backfill
	// from recovered content first).
	engine := pipeline.QueryEngine()
	opts := []serve.Option{serve.WithHealth(pipeline.Health), serve.WithSSEHeartbeat(*sseHeartbeat)}
	if *liveOn {
		// The dispatcher must attach before ingestion starts so standing
		// queries see every event (registered later they see only the tail).
		opts = append(opts, serve.WithLive(pipeline.Live()))
		logger.Info("live subscriptions enabled", "endpoint", "/subscribe", "heartbeat", *sseHeartbeat)
	}
	history := obs.NewHistory(obs.Default(), *historySamples, *historyInterval)
	history.Start()
	defer history.Close()
	opts = append(opts, serve.WithHistory(history))
	if *pprofOn {
		opts = append(opts, serve.WithProfiling())
	}
	server := serve.New(engine, opts...)

	// Graceful shutdown: a signal stops the producer, the ingest goroutine
	// drains and closes the stream, then a final checkpoint runs.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ingestStop := make(chan struct{})

	ingested := make(chan struct{})
	if *in == "" && pipeline.Durable() && pipeline.Store().RecordCount() > 0 {
		logger.Info("recovered store is non-empty and no -in given; serving recovered data without new ingestion")
		close(ingested)
	} else {
		go func() {
			defer close(ingested)
			start := time.Now()
			result := ingest(pipeline, *in, city, *seed, *users, *days, cfg.Workers, *progress, *ingestDelay, ingestStop)
			logger.Info("ingestion complete",
				"records", result.Records, "trajectories", len(result.TrajectoryIDs),
				"stops", result.Stops, "moves", result.Moves,
				"elapsed", time.Since(start).Round(time.Millisecond))
		}()
	}
	// finish drains ingestion and writes the final checkpoint; it is the
	// tail of both shutdown paths (signal before the server started under
	// -wait, and signal while serving).
	finish := func() {
		close(ingestStop)
		<-ingested
		if err := pipeline.Close(); err != nil {
			logger.Error("shutdown: final flush/checkpoint failed", "err", err)
			os.Exit(1)
		}
		if pipeline.Durable() {
			logger.Info("shutdown complete: final flush and checkpoint written", "dir", *dataDir)
		}
	}
	if *wait {
		// A signal during ingestion must still shut down gracefully — the
		// ingest producer watches ingestStop, so the stream drains, closes
		// and checkpoints instead of the process dying with the signal
		// queued (or worse, ignored).
		select {
		case <-ingested:
		case sig := <-stop:
			logger.Info("signal received during ingestion; shutting down", "signal", sig.String())
			finish()
			return
		}
	}

	handler := server.Handler()
	if *pprofOn {
		logger.Info("profiling endpoints mounted", "pprof", "/debug/pprof/", "trace", "/debug/trace")
	}
	srv := serve.NewHTTPServer(*addr, handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-serveErr:
		fail(err)
	case sig := <-stop:
		logger.Info("signal received; shutting down", "signal", sig.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	finish()
}

// ingest streams the input (a CSV read row by row, or a generated people
// dataset) into the pipeline with the concurrent object-sharded fan-in and
// closes the stream. A close of stopCh ends the input early; the records
// already pulled still ingest before the stream closes, so shutdown never
// abandons in-flight work.
func ingest(pipeline *semitri.Pipeline, in string, city *workload.City, seed int64, users, days, workers, every int, delay time.Duration, stopCh <-chan struct{}) *semitri.Result {
	logger := obs.Component("ingest")
	var source iter.Seq[gps.Record]
	if in == "" {
		logger.Info("no -in file given; generating a people dataset", "users", users, "days", days)
		ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(users, days, seed+1))
		if err != nil {
			fail(err)
		}
		source = slices.Values(ds.Records())
	} else {
		source = func(yield func(gps.Record) bool) {
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
	records := func(yield func(gps.Record) bool) {
		n := 0
		for r := range source {
			select {
			case <-stopCh:
				return
			default:
			}
			if !yield(r) {
				return
			}
			if n++; every > 0 && n%every == 0 {
				logger.Info("ingest progress", "records", n)
			}
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-stopCh:
					return
				}
			}
		}
	}
	sp := pipeline.NewStream()
	if err := sp.FanIn(records, workers, nil); err != nil {
		fail(err)
	}
	result, err := sp.Close()
	if err != nil {
		select {
		case <-stopCh:
			// Shutdown raced an early or empty ingest; a partial stream is
			// expected here, not fatal.
			logger.Warn("stream close during shutdown", "err", err)
			return &semitri.Result{}
		default:
			fail(err)
		}
	}
	return result
}

func fail(err error) {
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
