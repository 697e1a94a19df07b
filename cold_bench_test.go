package semitri_test

import (
	"testing"
	"time"

	"semitri"
	"semitri/internal/obs"
	"semitri/internal/query/lang"
)

// BenchmarkColdQuery measures the cold read path: a people workload (8
// users x 5 days) ingested durably with a checkpoint after every quarter of
// the feed, closed and reopened, so every tuple lives in one of several
// mmap'd segments. One op runs a time-window scan, a top-K group-by and the
// co-location join through the query language. runs_decoded/op is the
// segment data frames the op decoded (obs.SegmentColdReads): a full scan
// decodes each key's runs whose directory entries its kind and time
// clauses do not refute, and a keyed
// resolve only the runs that hold the positions it asks for.
// column_frames/op is the column frames the op read
// (obs.SegmentColumnReads): a grouped scan reads a run's column frame
// instead of decoding its data frame.
func BenchmarkColdQuery(b *testing.B) {
	records := benchPeople(b, 8, 5, 31)
	cfg := semitri.DefaultConfig()
	cfg.Durability = semitri.Durability{Dir: b.TempDir(), Fsync: "never"}
	p := benchPipeline(b, cfg)
	sp := p.NewStream()
	for q := 0; q < 4; q++ {
		benchAdd(b, sp, records[q*len(records)/4:(q+1)*len(records)/4])
		if err := p.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sp.Close(); err != nil {
		b.Fatal(err)
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	p = benchPipeline(b, cfg)
	defer p.Close()
	if n := p.Store().ColdSegmentCount(); n < 4 {
		b.Fatalf("reopened store has %d segments, want at least 4", n)
	}
	day := records[0].Time.UTC().Truncate(24 * time.Hour)
	window := "from = " + day.Add(30*time.Hour).Format(time.RFC3339) +
		" and to = " + day.Add(40*time.Hour).Format(time.RFC3339)
	stmts := []string{
		"episodes where " + window,
		"stops group by place distinct objects top 10",
		colocStatement,
	}
	engine := p.QueryEngine()
	b.ReportAllocs()
	before, cols := obs.SegmentColdReads.Value(), obs.SegmentColumnReads.Value()
	for b.Loop() {
		for _, src := range stmts {
			if _, err := lang.Run(engine, src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(obs.SegmentColdReads.Value()-before)/float64(b.N), "runs_decoded/op")
	b.ReportMetric(float64(obs.SegmentColumnReads.Value()-cols)/float64(b.N), "column_frames/op")
}
