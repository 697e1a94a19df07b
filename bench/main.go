// Command bench is SeMiTri's end-to-end benchmark: four named workloads,
// every end-to-end metric by name with its unit, correctness checks in the
// same command, and a per-layer replay trace. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with one JSON result line (every workload when empty)")
		seed    = flag.Int64("seed", 1, "seed of the generated trajectories and queries")
		seconds = flag.Float64("seconds", 20, "measuring budget of one workload run, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the layer replay and reports the per-layer metrics")
		scale   = flag.Float64("scale", 1, "multiplies the number of generated objects")
		out     = flag.String("out", "bench/out", "directory for result, trace and scratch files")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	e := &env{seed: *seed, scale: *scale, seconds: *seconds, outDir: *out, nproc: runtime.NumCPU()}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}
	res := Result{Stamp: stamp(e)}
	failed := false
	for _, w := range selected {
		run := w.run
		if *trace == 1 {
			run = w.replay
		}
		rep, err := run(e)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printReport(rep)
		res.Reports = append(res.Reports, rep)
		failed = failed || rep.Failed > 0
	}
	if *name == "" {
		path, err := res.write(e.outDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println("result file:", path)
	} else {
		list := endToEnd
		if *trace == 1 {
			list = perLayer
		}
		fmt.Println(resultLine(res.Reports[0], list))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printReport(rep Report) {
	fmt.Printf("%s: %d records of %d objects, %d timed queries, %d operations attempted, %d failed\n",
		rep.Workload, rep.Records, rep.Objects, rep.Queries, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := rep.Metrics[n]
		fmt.Printf("  %-34s %16.4f %-10s q1 %.4f  q3 %.4f  n %d\n", n, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, msg := range rep.Errors {
		fmt.Println("  FAILED:", msg)
	}
}

// resultLine is the one JSON object the driver reads: exactly the listed
// metrics, each with its value and unit.
func resultLine(rep Report, list []metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range list {
		line.Metrics[m.Name] = value{rep.Metrics[m.Name].Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// Stamp records the environment a result was measured in.
type Stamp struct {
	UTC        string  `json:"utc"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Cores      int     `json:"cores"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	NonTestLOC int     `json:"non_test_loc"` // ROADMAP aim 2; baseline 25,438
}

// Result is the content of a result file: one report per workload run.
type Result struct {
	Stamp   Stamp    `json:"stamp"`
	Reports []Report `json:"reports"`
}

func stamp(e *env) Stamp {
	s := Stamp{
		UTC: time.Now().UTC().Format("20060102T150405Z"), Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Cores: e.nproc, Seed: e.seed, Scale: e.scale, Seconds: e.seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	s.NonTestLOC = nonTestLOC()
	return s
}

// nonTestLOC counts the lines of the non-test Go files of the module under
// test (the benchmark's own directory excluded); 0 when it cannot be found.
func nonTestLOC() int {
	root := "."
	if _, err := os.Stat("semitri.go"); err != nil {
		root = ".."
	}
	if _, err := os.Stat(filepath.Join(root, "semitri.go")); err != nil {
		return 0
	}
	lines := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if f, err := os.Open(path); err == nil {
				for sc := bufio.NewScanner(f); sc.Scan(); {
					lines++
				}
				f.Close()
			}
		}
		return nil
	})
	return lines
}

func (r Result) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "result-"+r.Stamp.UTC+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
