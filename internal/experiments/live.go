package experiments

import (
	"fmt"
	"runtime"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/query"
	"semitri/internal/workload"
)

// liveStandingQueries is the subscription fan-out the bench sustains: every
// store event is evaluated against this many standing predicates while
// ingestion runs at full rate. The BENCH artifact asserts the count stays at
// four figures — the pipeline's design point.
const liveStandingQueries = 1024

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
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		var q query.Query
		switch i % 4 {
		case 0: // stops by category
			q = query.Query{Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: categories[next(len(categories))]}
		case 1: // moves by mode
			q = query.Query{Kind: &move, AnnKey: core.AnnTransportMode, AnnValue: modes[next(len(modes))]}
		case 2: // geofence over the 10 km city
			x, y := float64(next(9000)), float64(next(9000))
			side := float64(500 + next(2500))
			r := geo.NewRect(geo.Pt(x, y), geo.Pt(x+side, y+side))
			q = query.Query{Window: &r}
		default: // category inside a time-of-day band
			from := day.Add(time.Duration(next(20)) * time.Hour)
			q = query.Query{
				AnnKey: core.AnnPOICategory, AnnValue: categories[next(len(categories))],
				From: from, To: from.Add(time.Duration(2+next(6)) * time.Hour),
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// Live measures the standing-query pipeline under full-rate ingestion: the
// same people workload streams through the serial Add loop with the live tap
// detached (baseline) and attached with liveStandingQueries standing
// subscriptions being dispatched — each with a draining consumer, the
// /subscribe shape. The instrumented row's overhead_pct is CI-asserted
// below 5%: evaluation rides a bounded ring and a dispatcher goroutine, so
// the foreground cost of subscriptions is one ring publish per event batch,
// no matter how many queries stand.
//
// The measurement reuses the obs experiment's chunk-interleaved
// complementary random passes (see Observability): the tap is attached and
// detached per ~ms chunk, orientations drawn at random per pass couple and
// then complemented, and per-chunk minima are summed per configuration.
// One extra wrinkle: evaluation is asynchronous, so after every tapped chunk
// the pass waits (untimed) for the dispatcher to drain before timing a
// detached chunk — otherwise backlog evaluation would bleed CPU into
// baseline chunks and flatter the overhead.
func Live(env *Env) (*Table, error) {
	days := env.scaleInt(3)
	if days < 3 {
		days = 3
	}
	cfg := workload.DefaultPeopleConfig(8, days, env.Seed+89)
	ds, err := workload.GeneratePeople(env.City, cfg)
	if err != nil {
		return nil, err
	}
	records := ds.Records()
	if len(records) == 0 {
		return nil, fmt.Errorf("live: empty workload")
	}
	const chunks = 64
	chunkLen := (len(records) + chunks - 1) / chunks
	nChunks := (len(records) + chunkLen - 1) / chunkLen

	const passes = 12 // even: complementary couples keep exposure balanced
	offNsSamples := make([][]int64, nChunks)
	onNsSamples := make([][]int64, nChunks)
	queries := liveStandingQuerySet(env.Seed+13, liveStandingQueries)

	// Dispatch totals accumulate across timed passes only.
	var published, evalDrops, notifications, deliveryDrops, delivered int64

	// pass streams the whole workload through a fresh pipeline with a fresh
	// dispatcher + standing set, toggling the live tap per chunk.
	pass := func(instr func(c int) bool, timed bool) error {
		runtime.GC()
		p, err := semitri.New(semitri.Sources{
			Landuse: env.City.Landuse, Roads: env.City.Roads, POIs: env.City.POIs,
		}, semitri.DefaultConfig())
		if err != nil {
			return err
		}
		defer p.Close()
		st := p.Store()
		engine := p.QueryEngine()
		live := query.NewLive(st, 1<<16)
		defer live.Close()

		standing := make([]*query.Standing, 0, len(queries))
		for _, q := range queries {
			s, err := live.Register(q, 256)
			if err != nil {
				return fmt.Errorf("live: register %+v: %w", q, err)
			}
			standing = append(standing, s)
			// Each subscription gets a draining consumer (the /subscribe
			// shape): without one, delivery rings just fill and the drop
			// numbers measure nothing.
			go func(s *query.Standing) {
				sub := s.Sub()
				var buf []query.Notification
				for {
					buf = sub.Drain(buf[:0])
					select {
					case <-sub.C():
					case <-sub.Done():
						return
					}
				}
			}(s)
		}

		sp := p.NewStream()
		wasTapped := false
		for c := 0; c < nChunks; c++ {
			lo, hi := c*chunkLen, (c+1)*chunkLen
			if hi > len(records) {
				hi = len(records)
			}
			tap := instr(c)
			if wasTapped && !tap {
				live.Sync() // drain backlog before timing a baseline chunk
			}
			if tap {
				st.AttachIndex(engine, live.Tap())
			} else {
				st.AttachIndex(engine)
			}
			wasTapped = tap
			start := time.Now()
			for _, r := range records[lo:hi] {
				if _, err := sp.Add(r); err != nil {
					return err
				}
			}
			if timed {
				elapsed := time.Since(start).Nanoseconds()
				if tap {
					onNsSamples[c] = append(onNsSamples[c], elapsed)
				} else {
					offNsSamples[c] = append(offNsSamples[c], elapsed)
				}
			}
		}
		st.AttachIndex(engine, live.Tap())
		if _, err := sp.Close(); err != nil {
			return err
		}
		live.Sync()
		if timed {
			bs := live.BusStats()
			published += bs.Published
			evalDrops += live.EvalDrops()
			for _, s := range standing {
				notifications += s.Sub().Received()
				deliveryDrops += s.Drops()
				delivered += s.Sub().Received() - s.Drops()
			}
		}
		return nil
	}

	if err := pass(func(c int) bool { return c%2 == 0 }, false); err != nil { // warm-up
		return nil, err
	}
	before := obs.Default().Numeric()
	lcg := uint64(env.Seed)*6364136223846793005 + 1442695040888963407
	orient := make([]bool, (nChunks+1)/2)
	for p := 0; p < passes; p += 2 {
		for i := range orient {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			orient[i] = lcg>>63 == 1
		}
		instr := func(c int) bool { return orient[c/2] == (c%2 == 0) }
		if err := pass(instr, true); err != nil {
			return nil, err
		}
		if err := pass(func(c int) bool { return !instr(c) }, true); err != nil {
			return nil, err
		}
	}
	after := obs.Default().Numeric()

	min := func(xs []int64) float64 {
		best := xs[0]
		for _, x := range xs[1:] {
			if x < best {
				best = x
			}
		}
		return float64(best)
	}
	var offNs, onNs float64
	for c := 0; c < nChunks; c++ {
		if len(offNsSamples[c]) == 0 || len(onNsSamples[c]) == 0 {
			return nil, fmt.Errorf("live: chunk %d missing samples for a configuration", c)
		}
		offNs += min(offNsSamples[c])
		onNs += min(onNsSamples[c])
	}
	offPerRec := offNs / float64(len(records))
	onPerRec := onNs / float64(len(records))
	overheadPct := (onPerRec - offPerRec) / offPerRec * 100

	// Sustained evaluation throughput from the dispatch instrumentation:
	// events evaluated per second of dispatcher busy time, each event checked
	// against every standing query.
	events := after["semitri_live_events_evaluated_total"] - before["semitri_live_events_evaluated_total"]
	busyNs := after["semitri_live_dispatch_ns_sum"] - before["semitri_live_dispatch_ns_sum"]
	matches := after["semitri_live_matches_total"] - before["semitri_live_matches_total"]
	eventsPerSec := 0.0
	if busyNs > 0 {
		eventsPerSec = events / (busyNs / 1e9)
	}
	evalDropRate := 0.0
	if published > 0 {
		evalDropRate = float64(evalDrops) / float64(published) * 100
	}
	deliveryDropRate := 0.0
	if notifications > 0 {
		deliveryDropRate = float64(deliveryDrops) / float64(notifications) * 100
	}

	return &Table{
		ID:    "live",
		Title: "live subscriptions: ingest cost and dispatch throughput with 1k standing queries",
		Rows: []Row{
			{
				Label:   "baseline (live tap detached)",
				Columns: []string{"ns_per_record", "records"},
				Values: map[string]float64{
					"ns_per_record": offPerRec,
					"records":       float64(len(records)),
				},
			},
			{
				Label:   "live (standing queries attached)",
				Columns: []string{"ns_per_record", "overhead_pct", "standing_queries"},
				Values: map[string]float64{
					"ns_per_record":    onPerRec,
					"overhead_pct":     overheadPct,
					"standing_queries": float64(liveStandingQueries),
				},
			},
			{
				Label:   "dispatch",
				Columns: []string{"events_per_sec", "events", "matches", "eval_drop_rate_pct", "delivered", "delivery_drop_rate_pct"},
				Values: map[string]float64{
					"events_per_sec":         eventsPerSec,
					"events":                 events,
					"matches":                matches,
					"eval_drop_rate_pct":     evalDropRate,
					"delivered":              float64(delivered),
					"delivery_drop_rate_pct": deliveryDropRate,
				},
			},
		},
		Notes: []string{
			"chunk-interleaved complementary random passes (see obs); overhead_pct is CI-asserted < 5 with standing_queries >= 1000",
			"events_per_sec is dispatcher busy-time throughput: every event evaluated against all standing queries",
		},
	}, nil
}
