package semitri_test

import (
	"fmt"
	"runtime"
	"testing"

	"semitri/internal/query/lang"
)

// BenchmarkRelational measures the relational read path through the query
// language, on the query benchmarks' people fixture: a full scan, the
// co-location join and a top-K group-by, each with the engine serial
// (parallelism=1) and at GOMAXPROCS workers. The serial rows are the check
// that intra-query parallelism costs the one-worker path nothing: their
// allocs/op must not grow when the fan-out machinery changes.
func BenchmarkRelational(b *testing.B) {
	engine, _ := queryBenchSetup(b)
	stmts := []struct{ name, src string }{
		{"scan", "stops"},
		{"coloc_join", colocStatement},
		{"groupby_topk", "episodes group by place distinct objects top 10"},
	}
	defer engine.SetParallelism(0)
	for _, s := range stmts {
		for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/parallelism=%d", s.name, par), func(b *testing.B) {
				engine.SetParallelism(par)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := lang.Run(engine, s.src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
