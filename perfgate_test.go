package semitri_test

// The performance gates: benchmark-shaped checks that run under
// `go test -bench=. -benchtime=1x -run='^$' .` (plain `go test` stays
// untimed). Each ignores b.N, times an off and an on side of one workload
// with pairedPasses, and fails the run when the median of several such runs
// breaks its bound.

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/query"
)

// pairedPass is one pass of a paired measurement: set switches the side of
// the next chunk (untimed), run does chunk c (timed), end closes the pass.
type pairedPass struct {
	set func(on bool)
	run func(c int)
	end func()
}

// pairedPasses times nChunks chunks of work on an off and an on side and
// returns, per side, the sum over chunks of each chunk's fastest time.
//
// The true difference can be a fraction of a percent, while machine drift
// moves whole ~100 ms passes by several percent, so the side switches every
// chunk (~milliseconds). Chunks pair up; a deterministic LCG draws which
// member of each pair is on in the first pass of a couple, and the second
// pass flips every orientation, so no periodic disturbance phase-locks to a
// side and every chunk is timed passes/2 times per side on identical work.
// Timing noise only ever inflates a sample, so a chunk's minimum estimates
// its clean time, and the sum averages out the chunks that never caught a
// clean window. An untimed warm-up pass runs first; passes is even.
func pairedPasses(nChunks, passes int, seed int64, open func() pairedPass) (off, on float64) {
	var best [2][]int64
	for side := range best {
		best[side] = slices.Repeat([]int64{math.MaxInt64}, nChunks)
	}
	pass := func(isOn func(c int) bool, timed bool) {
		runtime.GC()
		p := open()
		for c := 0; c < nChunks; c++ {
			side := 0
			if isOn(c) {
				side = 1
			}
			p.set(side == 1)
			start := time.Now()
			p.run(c)
			if ns := time.Since(start).Nanoseconds(); timed {
				best[side][c] = min(best[side][c], ns)
			}
		}
		p.end()
	}

	pass(func(c int) bool { return c%2 == 0 }, false)
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	orient := make([]bool, (nChunks+1)/2)
	for n := 0; n < passes; n += 2 {
		for i := range orient {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			orient[i] = lcg>>63 == 1
		}
		isOn := func(c int) bool { return orient[c/2] == (c%2 == 0) }
		pass(isOn, true)
		pass(func(c int) bool { return !isOn(c) }, true)
	}
	for c := 0; c < nChunks; c++ {
		off += float64(best[0][c])
		on += float64(best[1][c])
	}
	return off, on
}

// gateMedian runs measure an odd number of times, each with its own
// orientation seed, logs every result, and reports and returns the median.
func gateMedian(b *testing.B, runs int, unit string, measure func(seed int64) float64) float64 {
	b.Helper()
	vals := make([]float64, runs)
	for i := range vals {
		vals[i] = measure(benchEnv(b).Seed + int64(i))
	}
	b.Logf("%s per run: %.4g", unit, vals)
	slices.Sort(vals)
	b.ReportMetric(vals[runs/2], unit)
	return vals[runs/2]
}

// ingestOverhead streams 8 users x 3 days (people seed offset by seed)
// through the serial Add loop of a fresh pipeline per pass, 64 chunks a
// pass, and returns the median over runs of the on side's extra time in
// percent. sides switches a pass's pipeline between the sides and ends it.
func ingestOverhead(b *testing.B, seed int64, passes, runs int, sides func(*semitri.Pipeline) (set func(on bool), end func())) float64 {
	records := benchPeople(b, 8, 3, benchEnv(b).Seed+seed)
	chunks := slices.Collect(slices.Chunk(records, (len(records)+63)/64))
	open := func() pairedPass {
		p := benchPipeline(b, semitri.DefaultConfig())
		set, end := sides(p)
		sp := p.NewStream()
		return pairedPass{
			set: set,
			run: func(c int) { benchAdd(b, sp, chunks[c]) },
			end: func() {
				if _, err := sp.Close(); err != nil {
					b.Fatal(err)
				}
				end()
				p.Close()
			},
		}
	}
	return gateMedian(b, runs, "overhead_pct", func(seed int64) float64 {
		off, on := pairedPasses(len(chunks), passes, seed, open)
		return (on - off) / off * 100
	})
}

// BenchmarkGateJoinSpeedup gates the parallel executor: the co-location join
// (stops x stops within 1 h and 200 m, distinct objects) over 24 users x 2
// days, one join a chunk, at 4 workers against 1. On two or more cores the
// median speedup must be at least 1.0. The parallel pairs must equal the
// serial ones before anything is timed.
func BenchmarkGateJoinSpeedup(b *testing.B) {
	const workers = 4
	p := benchPipeline(b, semitri.DefaultConfig())
	defer p.Close()
	engine := p.QueryEngine()
	defer engine.SetParallelism(0)
	if _, err := p.ProcessRecords(benchPeople(b, 24, 2, benchEnv(b).Seed+31)); err != nil {
		b.Fatal(err)
	}
	join := query.Join{
		Left:  query.MustBuild(query.OnlyStops()),
		Right: query.MustBuild(query.OnlyStops()),
		On:    query.JoinOn{Within: time.Hour, MaxDistance: 200, DistinctObjects: true},
	}
	setWorkers := func(on bool) {
		if on {
			engine.SetParallelism(workers)
		} else {
			engine.SetParallelism(1)
		}
	}
	runJoin := func() []query.JoinMatch {
		pairs, err := engine.ExecuteJoin(join)
		if err != nil {
			b.Fatal(err)
		}
		return pairs
	}
	setWorkers(false)
	serial := runJoin()
	setWorkers(true)
	if parallel := runJoin(); !reflect.DeepEqual(serial, parallel) {
		b.Fatalf("join at %d workers differs from serial (%d against %d pairs)", workers, len(parallel), len(serial))
	}

	pass := pairedPass{set: setWorkers, run: func(int) { runJoin() }, end: func() {}}
	speedup := gateMedian(b, 7, "join_speedup", func(seed int64) float64 {
		serial, parallel := pairedPasses(64, 8, seed, func() pairedPass { return pass })
		return serial / parallel
	})
	if cores := runtime.GOMAXPROCS(0); cores >= 2 && speedup < 1.0 {
		b.Fatalf("co-location join at %d workers on %d cores: median speedup %.3f, want >= 1.0", workers, cores, speedup)
	}
}

// BenchmarkGateObsOverhead gates what the metrics layer costs the ingest hot
// path: on is instrumentation on (the production default), off is
// obs.SetEnabled(false). The median overhead must stay under 3 %. One run
// spreads with a standard deviation of ~1.8 points on a 2-core VM, so the
// median takes 15 runs.
func BenchmarkGateObsOverhead(b *testing.B) {
	defer obs.SetEnabled(true)
	overhead := ingestOverhead(b, 67, 32, 15, func(*semitri.Pipeline) (func(bool), func()) {
		return obs.SetEnabled, func() { obs.SetEnabled(true) }
	})
	if overhead >= 3 {
		b.Fatalf("observability overhead on ingest: median %.2f %%, want < 3 %%", overhead)
	}
}

// BenchmarkGateLiveOverhead gates the standing-query pipeline: on attaches
// the live tap with 1,024 standing queries, each drained by its own consumer
// (the /subscribe shape). The median ingest overhead must stay under 5 %.
// Evaluation and delivery are asynchronous, so before a detached chunk the
// pass waits, untimed, until the dispatcher has evaluated every event and
// every subscription's ring is drained; otherwise the last tapped chunk's
// work would land in the baseline and flatter the overhead.
func BenchmarkGateLiveOverhead(b *testing.B) {
	queries := liveStandingQuerySet(benchEnv(b).Seed+13, 1024)
	overhead := ingestOverhead(b, 89, 12, 5, func(p *semitri.Pipeline) (func(bool), func()) {
		st, engine := p.Store(), p.QueryEngine()
		live := query.NewLive(st, 1<<16)
		standing := make([]*query.Standing, len(queries))
		for i, q := range queries {
			s, err := live.Register(q, 256)
			if err != nil {
				b.Fatalf("register %+v: %v", q, err)
			}
			standing[i] = s
			go func(sub *obs.Sub[query.Notification]) {
				var buf []query.Notification
				for {
					buf = sub.Drain(buf[:0])
					select {
					case <-sub.C():
					case <-sub.Done():
						return
					}
				}
			}(s.Sub())
		}
		if n := live.StandingCount(); n < 1000 {
			b.Fatalf("%d standing queries registered, want >= 1000", n)
		}
		tapped := false
		set := func(on bool) {
			if tapped && !on {
				live.Sync()
				for _, s := range standing {
					for s.Lag() > 0 {
						time.Sleep(100 * time.Microsecond)
					}
				}
			}
			if on {
				st.AttachIndex(engine, live.Tap())
			} else {
				st.AttachIndex(engine)
			}
			tapped = on
		}
		return set, live.Close
	})
	if overhead >= 5 {
		b.Fatalf("ingest overhead of 1,024 standing queries: median %.2f %%, want < 5 %%", overhead)
	}
}

// liveStandingQuerySet builds a deterministic mix of standing queries over
// the synthetic city: category and mode filters, spatial windows, time
// windows and combinations — the shapes /subscribe serves.
func liveStandingQuerySet(seed int64, n int) []query.Query {
	categories := []string{"services", "feedings", "item sale", "person life", "unknown"}
	modes := []string{"walk", "bicycle", "bus", "metro", "car"}
	stop, move := episode.Stop, episode.Move
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(mod int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg >> 33 % uint64(mod))
	}
	day := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	qs := make([]query.Query, n)
	for i := range qs {
		switch i % 4 {
		case 0: // stops by category
			qs[i] = query.Query{Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: categories[next(len(categories))]}
		case 1: // moves by mode
			qs[i] = query.Query{Kind: &move, AnnKey: core.AnnTransportMode, AnnValue: modes[next(len(modes))]}
		case 2: // geofence over the 10 km city
			x, y := float64(next(9000)), float64(next(9000))
			side := float64(500 + next(2500))
			r := geo.NewRect(geo.Pt(x, y), geo.Pt(x+side, y+side))
			qs[i] = query.Query{Window: &r}
		default: // category inside a time-of-day band
			from := day.Add(time.Duration(next(20)) * time.Hour)
			qs[i] = query.Query{
				AnnKey: core.AnnPOICategory, AnnValue: categories[next(len(categories))],
				From: from, To: from.Add(time.Duration(2+next(6)) * time.Hour),
			}
		}
	}
	return qs
}
