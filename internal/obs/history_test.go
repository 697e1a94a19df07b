package obs

import (
	"sort"
	"testing"
	"time"
)

func TestRegistryNumeric(t *testing.T) {
	r := NewRegistry()
	c := NewCounterIn(r, "t_count", "h", "k", "v")
	g := NewGaugeIn(r, "t_gauge", "h")
	NewGaugeFuncIn(r, "t_fn", "h", func() float64 { return 2.5 })
	h := NewHistogramIn(r, "t_hist", "h", []float64{10, 100})
	c.Add(3)
	g.Set(-7)
	h.Observe(5)
	h.Observe(50)
	got := r.Numeric()
	want := map[string]float64{
		`t_count{k="v"}`: 3,
		"t_gauge":        -7,
		"t_fn":           2.5,
		"t_hist_count":   2,
		"t_hist_sum":     55,
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("Numeric[%q] = %v, want %v (full: %v)", id, got[id], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Numeric has %d entries, want %d: %v", len(got), len(want), got)
	}
}

func TestHistoryWindowRingAndNames(t *testing.T) {
	r := NewRegistry()
	g := NewGaugeIn(r, "t_gauge", "h")
	h := NewHistory(r, 3, time.Hour)
	defer h.Close()
	for i := 1; i <= 5; i++ {
		g.Set(int64(i * 10))
		h.SampleNow()
	}
	// Capacity 3: only the last three samples survive, oldest first.
	samples, ok := h.Window("t_gauge", 0)
	if !ok {
		t.Fatal("series t_gauge missing")
	}
	if len(samples) != 3 {
		t.Fatalf("retained %d samples, want 3", len(samples))
	}
	for i, want := range []float64{30, 40, 50} {
		if samples[i].Value != want {
			t.Fatalf("sample %d = %v, want %v", i, samples[i].Value, want)
		}
		if i > 0 && samples[i].UnixNano < samples[i-1].UnixNano {
			t.Fatal("samples not in chronological order")
		}
	}
	if _, ok := h.Window("nope", 0); ok {
		t.Fatal("unknown series must report !ok")
	}
	// A tiny trailing window excludes everything but keeps the series known.
	old, ok := h.Window("t_gauge", time.Nanosecond)
	if !ok {
		t.Fatal("windowed lookup lost the series")
	}
	if len(old) > 3 {
		t.Fatalf("window returned %d samples", len(old))
	}
	names := h.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "t_gauge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names missing t_gauge: %v", names)
	}
}

func TestHistoryTickBus(t *testing.T) {
	r := NewRegistry()
	g := NewGaugeIn(r, "t_gauge", "h")
	h := NewHistory(r, 8, time.Hour)
	sub := h.Subscribe(4)
	g.Set(42)
	h.SampleNow()
	tick, ok := sub.TryNext()
	if !ok {
		t.Fatal("no tick delivered")
	}
	if tick.Values["t_gauge"] != 42 {
		t.Fatalf("tick value = %v, want 42", tick.Values["t_gauge"])
	}
	if tick.UnixNano == 0 {
		t.Fatal("tick missing timestamp")
	}
	h.Close()
	select {
	case <-sub.Done():
	default:
		t.Fatal("history close must close tick subscriptions")
	}
	if h.Subscribe(1) != nil {
		t.Fatal("Subscribe after Close must return nil")
	}
}

func TestHistoryStartAndClose(t *testing.T) {
	r := NewRegistry()
	NewGaugeIn(r, "t_gauge", "h")
	h := NewHistory(r, 8, time.Millisecond)
	h.Start()
	h.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, ok := h.Window("t_gauge", 0); ok && len(s) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never produced two samples")
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	h.Close() // idempotent

	// Close without Start must not hang.
	h2 := NewHistory(r, 2, time.Hour)
	h2.Close()
}

// TestIngestStageLatencies pins the Fig. 17 arithmetic on a synthetic delta:
// an every-call stage averages its summed time over the trajectories closed,
// the sampled tracker stage first scales its sampled mean to every record.
func TestIngestStageLatencies(t *testing.T) {
	before := map[string]float64{
		"semitri_ingest_records_total":                     1000,
		`semitri_ingest_stage_ns_sum{stage="map_match"}`:   500,
		`semitri_ingest_stage_ns_count{stage="map_match"}`: 1,
	}
	after := map[string]float64{
		"semitri_ingest_records_total":                     1640,
		"semitri_ingest_trajectories_total":                4,
		`semitri_ingest_stage_ns_sum{stage="track"}`:       2000, // 10 timed records, 200 ns each
		`semitri_ingest_stage_ns_count{stage="track"}`:     10,
		`semitri_ingest_stage_ns_sum{stage="map_match"}`:   8500,
		`semitri_ingest_stage_ns_count{stage="map_match"}`: 9,
	}
	got := map[string]StageLatency{}
	for _, l := range IngestStageLatencies(before, after) {
		got[l.Stage] = l
	}
	if len(got) != 6 {
		t.Fatalf("want the six Fig. 17 stages, got %v", got)
	}
	if l := got["compute episode"]; l.Count != 10 || l.Trajectories != 4 || l.PerTrajectory != 200*640/4 {
		t.Fatalf("compute episode = %+v, want 10 calls, 4 trajectories, 32µs per trajectory", l)
	}
	if l := got["map match"]; l.Count != 8 || l.PerTrajectory != 2000 {
		t.Fatalf("map match = %+v, want 8 calls, 2µs per trajectory", l)
	}
	if l := got["poi annotation"]; l.Count != 0 || l.PerTrajectory != 0 {
		t.Fatalf("poi annotation = %+v, want zero", l)
	}
}
