package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesHarness: every workload and metric BENCHMARK.json
// names exists in the harness with the same unit, direction and bound, and
// the other way round.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, f.Workloads[i].Name, w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := f.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, m)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
}

// checkEmitted verifies that a report holds every listed metric with the
// listed unit and a finite value, and that the result line holds exactly
// those.
func checkEmitted(t *testing.T, rep Report, list []metric) {
	t.Helper()
	var line struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(resultLine(rep, list)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(list) {
		t.Errorf("%s: result line has %d metrics, want %d", rep.Workload, len(line.Metrics), len(list))
	}
	for _, m := range list {
		s, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not reported", rep.Workload, m.Name)
			continue
		}
		if s.Unit != m.Unit || s.N < 1 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			t.Errorf("%s: metric %s = %+v, want unit %s and a finite value", rep.Workload, m.Name, s, m.Unit)
		}
		if got := line.Metrics[m.Name]; got.Unit != m.Unit || got.Value != s.Median {
			t.Errorf("%s: result line has %s = %+v, the report %v %s", rep.Workload, m.Name, got, s.Median, s.Unit)
		}
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct %v, %d attempted, %d failed: %v", rep.Workload, line.Correct, line.Attempted, line.Failed, rep.Errors)
	}
}

// TestSmoke runs every workload end to end and through the layer replay at
// a hundredth of the scale.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	e := &env{seed: 5, scale: 0.01, seconds: 2, outDir: dir, nproc: runtime.NumCPU()}
	res := Result{Stamp: stamp(e)}
	exact := map[string]map[string]float64{}
	for _, w := range workloads {
		rep, err := w.run(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkEmitted(t, rep, endToEnd)
		for _, m := range endToEnd {
			if rep.Metrics[m.Name].Median <= 0 {
				t.Errorf("%s: %s is %v; end-to-end metrics are never 0", w.name, m.Name, rep.Metrics[m.Name].Median)
			}
		}
		exact[w.name] = rep.Counts
		res.Reports = append(res.Reports, rep)

		layers, err := w.replay(e)
		if err != nil {
			t.Fatalf("%s replay: %v", w.name, err)
		}
		checkEmitted(t, layers, perLayer)
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}

	// The counts declared exact repeat in a second run of the same seed, even
	// a shorter one.
	e.seconds = 1
	for _, w := range workloads {
		if exact[w.name] == nil {
			continue
		}
		rep, err := w.run(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !sameCounts(rep.Counts, exact[w.name]) {
			t.Errorf("%s: exact counts differ between two runs of one seed:\n%v\n%v", w.name, exact[w.name], rep.Counts)
		}
	}

	// A result file compared with itself has nothing better and nothing worse.
	path, err := res.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	worse, err := compareFiles(&table, path, path)
	if err != nil || worse {
		t.Fatalf("compare with itself: worse %v, err %v", worse, err)
	}
	rows := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if want := len(workloads) * len(endToEnd); len(rows) < want {
		t.Errorf("compare printed %d rows, want at least %d", len(rows), want)
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, "unchanged") && !strings.HasSuffix(row, "unresolved") {
			t.Errorf("compare with itself: %s", row)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{"recovery_s", "s", "lower", 0.10}
	higher := metric{"queries_per_s", "1/s", "higher", 0.10}
	steady := func(v float64) Sample { return Sample{Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 7} }
	cases := []struct {
		m          metric
		base, next Sample
		want       string
	}{
		{lower, steady(1), steady(1.05), "unchanged"},
		{lower, steady(1), steady(1.2), "worse"},
		{lower, steady(1), steady(0.8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, Sample{Median: 1, Q1: 0.8, Q3: 1.2, N: 7}, steady(2), "unresolved"},
		{metric{Name: "failed_share"}, single("ratio", 0), single("ratio", 0.002), "worse"},
		{metric{Name: "failed_share"}, single("ratio", 0), single("ratio", 0.0005), "unchanged"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.m.Name, c.base.Median, c.next.Median, got, c.want)
		}
	}
}

// TestMergeFeedIsEventTimeOrdered: the feed interleaves the objects in event
// time and keeps every record.
func TestMergeFeedIsEventTimeOrdered(t *testing.T) {
	ds, err := genFleet(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	total, switches := 0, 0
	for _, o := range ds.objects {
		total += len(ds.per[o])
	}
	if len(ds.feed) != total {
		t.Fatalf("feed has %d records, the objects %d", len(ds.feed), total)
	}
	for i := 1; i < len(ds.feed); i++ {
		if ds.feed[i].Time.Before(ds.feed[i-1].Time) {
			t.Fatalf("record %d goes back in time", i)
		}
		if ds.feed[i].ObjectID != ds.feed[i-1].ObjectID {
			switches++
		}
	}
	if switches < len(ds.feed)/2 {
		t.Errorf("only %d object switches in %d records: the feed is not interleaved", switches, len(ds.feed))
	}
	again, err := genFleet(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.feed {
		if ds.feed[i] != again.feed[i] {
			t.Fatalf("record %d differs between two generations of one seed", i)
		}
	}
}
