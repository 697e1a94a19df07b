package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"semitri"
)

// coldState is what cold_analytics sets up: a pipeline reopened over a
// closed segment directory, so that every tuple is cold in mmap'd segments.
type coldState struct {
	ds  *dataset
	dir string
	p   *semitri.Pipeline
}

// coldAnalytics: read-only and in-process. Segment cold decode and the
// planner, join, aggregate and parallel executor do all the work; serve, WAL
// and the ingest layers none. It is where a compactor or a leaner join must
// show, and where serve_mixed's point lookups cannot see them.
func coldAnalytics(e *env) (Report, error) {
	r := newRun(e, "cold_analytics")
	root, err := e.tempDir("cold-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(root)
	base := 0.0

	// Set-up: generate, ingest in segments mode with eight count-triggered
	// checkpoints (so time-window scans have footers to prune by), close,
	// reopen, attach the engine.
	n := 0
	st, err := timedSetup(r, func() (coldState, error) {
		ds, err := genFleet(scaled(800, e.scale, 8), e.seed)
		if err != nil {
			return coldState{}, err
		}
		base = heapMB()
		n++
		s := coldState{ds: ds, dir: fmt.Sprintf("%s/store-%d", root, n)}
		p, err := r.pipeline(ds, durable(fleetConfig(), s.dir))
		if err != nil {
			return s, err
		}
		p.QueryEngine()
		wall := r.ingest(p, ds.feed, 8)
		r.add("ingest_records_per_s", float64(len(ds.feed))/wall.Seconds())
		if n == 1 {
			r.rep.Digest = digest(p.Store())
		}
		if !r.op("close pipeline", p.Close()) {
			return s, fmt.Errorf("close failed")
		}
		bytes, err := dirBytes(s.dir)
		if err != nil {
			return s, err
		}
		r.add("disk_bytes_per_record", float64(bytes)/float64(len(ds.feed)))
		start := time.Now()
		s.p, err = r.pipeline(ds, durable(fleetConfig(), s.dir))
		if !r.op("reopen", err) {
			return s, err
		}
		r.add("recovery_s", time.Since(start).Seconds())
		s.p.QueryEngine()
		return s, nil
	}, func(old coldState) {
		r.op("close pipeline", old.p.Close())
		os.RemoveAll(old.dir)
	})
	if err != nil {
		return Report{}, err
	}
	defer st.p.Close()
	r.rep.Records, r.rep.Objects = len(st.ds.feed), len(st.ds.objects)
	engine := st.p.QueryEngine()
	r.check("reopened digest equals the digest before close", digest(st.p.Store()) == r.rep.Digest)

	gen, err := newStmtGen(e.seed, profileStore(st.p.Store()))
	if err != nil {
		return Report{}, err
	}
	batch, err := gen.analyticsBatch(scaled(200, e.scale, 12))
	if err != nil {
		return Report{}, err
	}
	checkAgainstBrute(&r.tally, engine, batch[:12])

	// Two untimed batches let page cache, allocator and pools settle: cold
	// means resident in segments, not first touched. Then the timed phase:
	// the fixed batch, repeated.
	for i := 0; i < 2; i++ {
		for _, s := range batch {
			_, err := execute(engine, s)
			r.op(s.url, err)
		}
	}
	before := counters()
	var firstCounts map[string]float64
	firstAnswer := ""
	for start, rep := time.Now(), 0; rep < 7 || time.Since(start) < e.budget(0.7); rep++ {
		runtime.GC()
		var rows strings.Builder
		var lats []float64
		batchStart := time.Now()
		for _, s := range batch {
			t0 := time.Now()
			n, err := execute(engine, s)
			lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e6)
			r.op(s.url, err)
			fmt.Fprintf(&rows, "%d,", n)
		}
		wall := time.Since(batchStart)
		r.add("analytics_batch_s", wall.Seconds())
		r.add("queries_per_s", float64(len(batch))/wall.Seconds())
		r.add("query_p50_ms", summarize("", lats).Median)
		r.rep.Queries += len(batch)
		if rep == 0 {
			firstAnswer, firstCounts = rows.String(), exactDelta(before)
		} else {
			r.check("batch row counts identical across repetitions", rows.String() == firstAnswer)
		}
	}
	r.rep.Counts = firstCounts
	r.add("live_heap_mb", heapMB()-base)
	return r.finish(), nil
}

func coldAnalyticsReplay(e *env) (Report, error) {
	ds, err := genFleet(scaled(800, e.scale, 8), e.seed)
	if err != nil {
		return Report{}, err
	}
	return replay(e, "cold_analytics", replayInput{ds: ds, cfg: fleetConfig(), engine: true, durable: true, checkpoints: 8,
		mix: func(g *stmtGen) ([]stmt, error) { return g.analyticsBatch(48) }})
}
