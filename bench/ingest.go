package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"semitri"
)

// peopleIngest: about a million smartphone records, in memory, bare store.
// Almost all work is per record (clean, segment, track, land-use lookup)
// while store, indexes, WAL and segments do almost nothing: the workload
// where a cleaner or tracker optimisation shows and a WAL one must not.
func peopleIngest(e *env) (Report, error) {
	r := newRun(e, "people_ingest")
	ds, err := timedSetup(r, func() (*dataset, error) {
		return genPeople(scaled(70, e.scale, 2), e.seed)
	}, nil)
	if err != nil {
		return Report{}, err
	}
	r.rep.Records, r.rep.Objects = len(ds.feed), len(ds.objects)
	base := heapMB() // the generated input, which is not the system's

	var last *semitri.Pipeline
	for start, pass := time.Now(), 0; pass < 7 || time.Since(start) < e.budget(0.8); pass++ {
		last = nil
		runtime.GC()
		p, err := r.pipeline(ds, peopleConfig())
		if err != nil {
			return Report{}, err
		}
		before := counters()
		wall := r.ingest(p, ds.feed, 0)
		r.add("ingest_records_per_s", float64(len(ds.feed))/wall.Seconds())
		counts := exactDelta(before)
		r.add("live_heap_mb", heapMB()-base)
		r.sameAsFirst(digest(p.Store()), counts)
		last = p
	}

	// The read side of the same data: attach the engine (it backfills its
	// indexes from the store) and run the serving mix in-process.
	if err := r.probe(last.QueryEngine(), e.budget(0.15)); err != nil {
		return Report{}, err
	}
	r.checkParity(ds.sample(20), peopleConfig())
	return r.finish(), nil
}

// fleetDurable: many private cars, query engine attached before ingest,
// segment storage with interval fsync and count-triggered checkpoints, then
// crash-image recovery. Per-episode and per-mutation layers dominate (map
// matching, HMM, store appends, index maintenance, WAL framing, freezes) and
// checkpoint stalls land in the foreground: the write-side twin of
// people_ingest with every observer attached.
func fleetDurable(e *env) (Report, error) {
	r := newRun(e, "fleet_durable")
	ds, err := timedSetup(r, func() (*dataset, error) {
		return genFleet(scaled(1600, e.scale, 8), e.seed)
	}, nil)
	if err != nil {
		return Report{}, err
	}
	r.rep.Records, r.rep.Objects = len(ds.feed), len(ds.objects)
	base := heapMB() // the generated input, which is not the system's
	root, err := e.tempDir("fleet-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(root)

	// Three checkpoints at 25, 50 and 75 % of the feed: the last quarter of
	// the records lives only in the WAL tail of the crash image.
	const checkpoints = 3
	image := filepath.Join(root, "image")
	for start, pass := time.Now(), 0; pass < 5 || time.Since(start) < e.budget(0.65); pass++ {
		runtime.GC()
		dir := filepath.Join(root, "pass")
		p, err := r.pipeline(ds, durable(fleetConfig(), dir))
		if err != nil {
			return Report{}, err
		}
		p.QueryEngine()
		before := counters()
		wall := r.ingest(p, ds.feed, checkpoints)
		r.add("ingest_records_per_s", float64(len(ds.feed))/wall.Seconds())
		counts := exactDelta(before)
		r.add("live_heap_mb", heapMB()-base)
		r.sameAsFirst(digest(p.Store()), counts)
		if pass == 0 {
			// The crash image: what a kill -9 after the durability barrier
			// leaves on disk, before Close's final checkpoint folds the tail.
			if err := copyDir(dir, image); err != nil {
				return Report{}, err
			}
			bytes, err := dirBytes(image)
			if err != nil {
				return Report{}, err
			}
			r.add("disk_bytes_per_record", float64(bytes)/float64(len(ds.feed)))
		}
		r.op("close pipeline", p.Close())
		if err := os.RemoveAll(dir); err != nil {
			return Report{}, err
		}
	}

	// Recover the crash image, each time from a fresh copy.
	var recovered *semitri.Pipeline
	for i := 0; i < 5; i++ {
		if recovered != nil {
			r.op("close recovered pipeline", recovered.Close())
		}
		dir := filepath.Join(root, "recover")
		if err := os.RemoveAll(dir); err != nil {
			return Report{}, err
		}
		if err := copyDir(image, dir); err != nil {
			return Report{}, err
		}
		runtime.GC()
		start := time.Now()
		recovered, err = r.pipeline(ds, durable(fleetConfig(), dir))
		if !r.op("recover", err) {
			return r.finish(), nil
		}
		r.add("recovery_s", time.Since(start).Seconds())
		r.check("recovered digest equals the pre-crash digest", digest(recovered.Store()) == r.rep.Digest)
	}

	// The read side on the recovered store: cold segments plus the replayed
	// WAL tail.
	if err := r.probe(recovered.QueryEngine(), e.budget(0.15)); err != nil {
		return Report{}, err
	}
	r.op("close recovered pipeline", recovered.Close())
	r.checkParity(ds.sample(20), fleetConfig())
	return r.finish(), nil
}

func peopleIngestReplay(e *env) (Report, error) {
	ds, err := genPeople(scaled(70, e.scale, 2), e.seed)
	if err != nil {
		return Report{}, err
	}
	return replay(e, "people_ingest", replayInput{ds: ds, cfg: peopleConfig(),
		mix: func(g *stmtGen) ([]stmt, error) { return g.servingMix(256) }})
}

func fleetDurableReplay(e *env) (Report, error) {
	ds, err := genFleet(scaled(1600, e.scale, 8), e.seed)
	if err != nil {
		return Report{}, err
	}
	return replay(e, "fleet_durable", replayInput{ds: ds, cfg: fleetConfig(), engine: true, durable: true, checkpoints: 3,
		mix: func(g *stmtGen) ([]stmt, error) { return g.servingMix(256) }})
}
