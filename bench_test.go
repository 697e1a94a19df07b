// Package semitri_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§5). Each benchmark runs the
// corresponding experiment from internal/experiments at a reduced scale and
// reports wall-clock cost per regeneration; `go test -bench=. -benchmem`
// therefore both exercises the full pipeline and prints each experiment's
// rows once per benchmark.
package semitri_test

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"semitri"
	"semitri/internal/experiments"
	"semitri/internal/gps"
	"semitri/internal/workload"
)

// benchEnv is shared across benchmarks; building the synthetic city is
// expensive and identical for every experiment.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvVal, benchEnvErr = experiments.NewEnv(2026, 0.25)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// benchPeople generates users x days of the people workload on benchEnv's
// city.
func benchPeople(b *testing.B, users, days int, seed int64) []gps.Record {
	b.Helper()
	ds, err := workload.GeneratePeople(benchEnv(b).City, workload.DefaultPeopleConfig(users, days, seed))
	if err != nil {
		b.Fatal(err)
	}
	return ds.Records()
}

// benchPipeline opens a pipeline with cfg on benchEnv's city.
func benchPipeline(b *testing.B, cfg semitri.Config) *semitri.Pipeline {
	b.Helper()
	env := benchEnv(b)
	p, err := semitri.New(semitri.Sources{
		Landuse: env.City.Landuse, Roads: env.City.Roads, POIs: env.City.POIs,
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchAdd streams records through sp.
func benchAdd(b *testing.B, sp *semitri.StreamProcessor, records []gps.Record) {
	b.Helper()
	for _, r := range records {
		if _, err := sp.Add(r); err != nil {
			b.Fatal(err)
		}
	}
}

// runExperiment benchmarks one experiment id and logs its table once.
func runExperiment(b *testing.B, id string) {
	env := benchEnv(b)
	fn := experiments.Registry[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var logged bool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(env)
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			b.Log("\n" + tbl.Format())
			logged = true
		}
	}
}

// BenchmarkTable1VehicleDatasets regenerates Table 1 (vehicle dataset inventory).
func BenchmarkTable1VehicleDatasets(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2PeopleDatasets regenerates Table 2 (people dataset inventory).
func BenchmarkTable2PeopleDatasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig9LanduseDistribution regenerates Fig. 9 (taxi land-use shares).
func BenchmarkFig9LanduseDistribution(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10MapMatchingSensitivity regenerates Fig. 10 (accuracy vs R, sigma).
func BenchmarkFig10MapMatchingSensitivity(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11StopCategories regenerates Fig. 11 (POI/stop/trajectory categories).
func BenchmarkFig11StopCategories(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12EpisodeDistribution regenerates Fig. 12 (log-log episode sizes).
func BenchmarkFig12EpisodeDistribution(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13PerUserCounts regenerates Fig. 13 (per-user counts).
func BenchmarkFig13PerUserCounts(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14PerUserLanduse regenerates Fig. 14 (per-user land-use profiles).
func BenchmarkFig14PerUserLanduse(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15TransportModes regenerates Figs. 15/16 (commute mode annotation).
func BenchmarkFig15TransportModes(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig17LatencyBreakdown regenerates Fig. 17 (per-stage latency).
func BenchmarkFig17LatencyBreakdown(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkCompressionRatio regenerates the §5.2 storage-compression claim.
func BenchmarkCompressionRatio(b *testing.B) { runExperiment(b, "compression") }

// BenchmarkAblationMapMatching regenerates ablation A1 (global vs nearest matching).
func BenchmarkAblationMapMatching(b *testing.B) { runExperiment(b, "ablation-mapmatch") }

// BenchmarkAblationHMMvsNearest regenerates ablation A2 (HMM vs nearest-POI).
func BenchmarkAblationHMMvsNearest(b *testing.B) { runExperiment(b, "ablation-hmm") }

// BenchmarkPipelinePeopleDay measures the end-to-end pipeline cost for one
// person-day of data (the unit the paper's Fig. 17 latencies refer to).
func BenchmarkPipelinePeopleDay(b *testing.B) {
	records := benchPeople(b, 1, 1, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchPipeline(b, semitri.DefaultConfig()).ProcessRecords(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPeopleDay measures the streaming ingestion path on one
// person-day of data fed record by record, reporting amortised per-record
// latency (ns/record) — the figure that matters for online serving.
func BenchmarkStreamPeopleDay(b *testing.B) {
	records := benchPeople(b, 1, 1, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pipeline construction (spatial index building) is not part of the
		// per-record serving cost; keep it off the clock.
		b.StopTimer()
		sp := benchPipeline(b, semitri.DefaultConfig()).NewStream()
		b.StartTimer()
		benchAdd(b, sp, records)
		if _, err := sp.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perRecord := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(records))
	b.ReportMetric(perRecord, "ns/record")
}

// BenchmarkStreamPeopleDayDurable is BenchmarkStreamPeopleDay with the
// write-ahead log enabled under the default group-commit policy: the same
// person-day streamed record by record, but every store mutation is framed,
// CRC'd and batch-fsynced to a WAL. The per-record delta against
// BenchmarkStreamPeopleDay is the durability overhead (the acceptance
// budget is ~25%; bench/'s fleet_durable workload prices the WAL per layer
// on a larger feed).
func BenchmarkStreamPeopleDayDurable(b *testing.B) {
	records := benchPeople(b, 1, 1, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "semitri-bench-wal-*")
		if err != nil {
			b.Fatal(err)
		}
		cfg := semitri.DefaultConfig()
		cfg.Durability = semitri.Durability{Dir: dir}
		p := benchPipeline(b, cfg)
		sp := p.NewStream()
		b.StartTimer()
		benchAdd(b, sp, records)
		if _, err := sp.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.StopTimer()
	perRecord := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(records))
	b.ReportMetric(perRecord, "ns/record")
}

// BenchmarkStreamConcurrentObjects measures multi-object streaming
// ingestion: 8 objects' day-long feeds are pushed through one
// StreamProcessor from a varying number of goroutines (objects distributed
// round-robin, so per-object order is preserved). With the per-object
// streaming engine and the lock-striped store, ns/record should drop as
// goroutines are added instead of flatlining on a global lock. The
// fanin/workers=N cases time the same feed through FanIn.
func BenchmarkStreamConcurrentObjects(b *testing.B) {
	records := benchPeople(b, 8, 1, 123)
	perObject := map[string][]gps.Record{}
	for _, r := range records {
		perObject[r.ObjectID] = append(perObject[r.ObjectID], r)
	}
	feeds := make([][]gps.Record, 0, len(perObject))
	ids := make([]string, 0, len(perObject))
	for id := range perObject {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		feeds = append(feeds, perObject[id])
	}
	// run times ingest of the whole workload into a fresh stream per
	// iteration; building the pipeline is not timed.
	run := func(b *testing.B, ingest func(sp *semitri.StreamProcessor) error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sp := benchPipeline(b, semitri.DefaultConfig()).NewStream()
			b.StartTimer()
			if err := ingest(sp); err != nil {
				b.Fatal(err)
			}
			if _, err := sp.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perRecord := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(records))
		b.ReportMetric(perRecord, "ns/record")
	}
	for _, goroutines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			run(b, func(sp *semitri.StreamProcessor) error {
				var wg sync.WaitGroup
				for w := 0; w < goroutines; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// Round-robin: worker w feeds objects w, w+G, ...
						for f := w; f < len(feeds); f += goroutines {
							for _, r := range feeds[f] {
								if _, err := sp.Add(r); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				return nil
			})
		})
	}
	// FanIn, the ingest driver of cmd/semitri and cmd/semitri-serve: the
	// interleaved sequence is pulled once and sharded by object.
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("fanin/workers=%d", workers), func(b *testing.B) {
			run(b, func(sp *semitri.StreamProcessor) error {
				return sp.FanIn(slices.Values(records), workers, nil)
			})
		})
	}
}

// BenchmarkPipelineTaxiTrip measures the end-to-end pipeline cost for a
// single taxi's day of trips with the vehicle configuration.
func BenchmarkPipelineTaxiTrip(b *testing.B) {
	env := benchEnv(b)
	cfg := workload.DefaultTaxiConfig(7)
	cfg.NumVehicles = 1
	cfg.TripsPerVehicle = 4
	ds, err := workload.GenerateVehicles(env.City, cfg)
	if err != nil {
		b.Fatal(err)
	}
	records := ds.Records()
	pipelineCfg := semitri.VehicleConfig()
	pipelineCfg.DailySplit = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchPipeline(b, pipelineCfg).ProcessRecords(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessRecordsPeople measures ProcessRecords on a multi-object
// batch (16 users x 2 days) at Workers 1 and 4 — the traffic cmd/semitri, the
// examples and the paper tables run. Building the pipeline is not timed.
func BenchmarkProcessRecordsPeople(b *testing.B) {
	records := benchPeople(b, 16, 2, 99)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := semitri.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := benchPipeline(b, cfg)
				b.StartTimer()
				if _, err := p.ProcessRecords(records); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
