// Command semitri-bench regenerates the tables and figures of the SeMiTri
// paper's evaluation (§5) on synthetic stand-in datasets and prints the
// resulting rows. Use -exp with one id, a comma-separated list of ids, or
// "all" (default) to run the full suite in the order of the paper.
//
// Usage:
//
//	semitri-bench [-exp all|table1|table2|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig17|compression|ablation-mapmatch|ablation-hmm]
//	              [-seed 2026] [-scale 1.0] [-list]
//
// Performance numbers come from the bench/ module and the root Go
// benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"semitri/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids to run, or 'all'")
	seed := flag.Int64("seed", 2026, "random seed for the synthetic environment and workloads")
	scale := flag.Float64("scale", 1.0, "workload scale factor (smaller is faster)")
	list := flag.Bool("list", false, "list available experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, id := range experiments.Order {
			fmt.Println("  " + id)
		}
		return
	}
	ids := experiments.Order
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known ids: %s\n", id, strings.Join(experiments.Order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			fmt.Fprintf(os.Stderr, "no experiment ids given; known ids: %s\n", strings.Join(experiments.Order, ", "))
			os.Exit(2)
		}
	}
	fmt.Printf("building synthetic environment (seed=%d, scale=%.2f)...\n", *seed, *scale)
	start := time.Now()
	env, err := experiments.NewEnv(*seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("environment ready in %v: %d landuse cells, %d road segments, %d POIs\n\n",
		time.Since(start).Round(time.Millisecond),
		env.City.Landuse.NumCells(), env.City.Roads.NumSegments(), env.City.POIs.Len())
	for _, id := range ids {
		fn := experiments.Registry[id]
		t0 := time.Now()
		tbl, err := fn(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(tbl.Format())
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}
