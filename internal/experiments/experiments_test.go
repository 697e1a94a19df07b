package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// The experiments are integration-heavy; they share one small-scale
// environment to keep the test run fast.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func smallEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(2026, 0.25)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvDefaults(t *testing.T) {
	env := smallEnv(t)
	if env.City == nil || env.City.POIs.Len() < 500 {
		t.Fatalf("environment not built: %+v", env)
	}
	if env.scaleInt(8) != 2 {
		t.Fatalf("scaleInt(8) at 0.25 = %d", env.scaleInt(8))
	}
	if env.scaleInt(1) != 1 {
		t.Fatal("scaleInt must never return < 1")
	}
	// Scale <= 0 falls back to 1.
	if e, err := NewEnv(1, -1); err != nil || e.Scale != 1 {
		t.Fatalf("negative scale: %v %v", e, err)
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(Registry) != len(Order) {
		t.Fatalf("registry has %d entries, order lists %d", len(Registry), len(Order))
	}
	for _, id := range Order {
		if Registry[id] == nil {
			t.Fatalf("experiment %q missing from the registry", id)
		}
	}
	// Exactly the paper's tables, figures and ablations.
	want := []string{
		"table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig17", "compression", "ablation-mapmatch", "ablation-hmm",
	}
	if !slices.Equal(Order, want) {
		t.Fatalf("Order = %v, want %v", Order, want)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Notes: []string{"a note"}}
	tbl.Rows = append(tbl.Rows, Row{Label: "row", Columns: []string{"v"}, Values: map[string]float64{"v": 0.5}})
	s := tbl.Format()
	if !strings.Contains(s, "== x: demo ==") || !strings.Contains(s, "v=0.5") || !strings.Contains(s, "note: a note") {
		t.Fatalf("Format = %q", s)
	}
}

func TestTable1Shape(t *testing.T) {
	env := smallEnv(t)
	tbl, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table1 rows = %d", len(tbl.Rows))
	}
	taxi := tbl.Rows[0].Values
	cars := tbl.Rows[1].Values
	// Taxi: few objects; Milan cars: many objects with sparser sampling.
	if taxi["objects"] >= cars["objects"] {
		t.Fatalf("taxi objects %v should be fewer than car objects %v", taxi["objects"], cars["objects"])
	}
	if taxi["sampling_s"] >= cars["sampling_s"] {
		t.Fatal("taxi sampling should be denser than car sampling")
	}
	if taxi["gps_records"] <= 0 || cars["gps_records"] <= 0 {
		t.Fatal("record counts must be positive")
	}
}

func TestFig9BuildingTransportDominate(t *testing.T) {
	env := smallEnv(t)
	tbl, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string]float64{}
	for _, r := range tbl.Rows {
		if v, ok := r.Values["trajectory"]; ok {
			shares[r.Label] = v
		}
	}
	combined := shares["1.2"] + shares["1.3"] + shares["1.1"]
	if combined < 0.5 {
		t.Fatalf("urban categories cover only %v of taxi records; paper reports ~83%% for 1.2+1.3", combined)
	}
	// The move/stop split row exists and the move share dominates for taxis.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Values["move_share"] <= last.Values["stop_share"] {
		t.Fatalf("taxi moves should dominate stops: %+v", last.Values)
	}
}

func TestFig10ShapeAndBestRegion(t *testing.T) {
	env := smallEnv(t)
	tbl, err := Fig10(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("fig10 rows = %d", len(tbl.Rows))
	}
	var best float64
	for _, r := range tbl.Rows {
		for _, c := range r.Columns {
			v := r.Values[c]
			if v < 0 || v > 1 {
				t.Fatalf("accuracy %v out of range in %s/%s", v, r.Label, c)
			}
			if v > best {
				best = v
			}
		}
	}
	if best < 0.85 {
		t.Fatalf("best matching accuracy = %v; the paper reports 90%%+ on the benchmark drive", best)
	}
}

func TestFig11StopDistributionShape(t *testing.T) {
	env := smallEnv(t)
	tbl, err := Fig11(env)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]map[string]float64{}
	for _, r := range tbl.Rows {
		vals[r.Label] = r.Values
	}
	// POI column mirrors the Milan shares; item sale + person life dominate
	// the stop column as in the paper.
	if vals["person life"]["poi"] <= vals["services"]["poi"] {
		t.Fatal("POI column should follow the Milan ordering")
	}
	stopsTop := vals["item sale"]["stop"] + vals["person life"]["stop"]
	stopsRest := vals["services"]["stop"] + vals["feedings"]["stop"] + vals["unknown"]["stop"]
	if stopsTop <= stopsRest {
		t.Fatalf("item sale + person life (%v) should dominate stop categories (rest %v)", stopsTop, stopsRest)
	}
}

func TestCompressionClaim(t *testing.T) {
	env := smallEnv(t)
	tbl, err := Compression(env)
	if err != nil {
		t.Fatal(err)
	}
	v := tbl.Rows[0].Values
	if v["compression"] < 0.9 {
		t.Fatalf("compression = %v; the paper reports ~99.7%% over 5 months, and even hours of data should exceed 90%%", v["compression"])
	}
	if v["distinct_cells"] >= v["gps_records"] || v["region_tuples"] >= v["gps_records"] {
		t.Fatal("region representation must be far smaller than the GPS records")
	}
}

func TestPeopleFiguresShape(t *testing.T) {
	env := smallEnv(t)
	t2, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 7 { // 6 users + total row
		t.Fatalf("table2 rows = %d", len(t2.Rows))
	}
	for _, r := range t2.Rows[:6] {
		if r.Values["gps_records"] <= 0 || r.Values["daily_trajectories"] <= 0 {
			t.Fatalf("user row %q has non-positive counts: %+v", r.Label, r.Values)
		}
	}
	f12, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Rows) < 6 {
		t.Fatalf("fig12 rows = %d", len(f12.Rows))
	}
	f13, err := Fig13(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != 6 {
		t.Fatalf("fig13 rows = %d", len(f13.Rows))
	}
	f14, err := Fig14(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 6 {
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	for _, r := range f14.Rows {
		if len(r.Columns) == 0 || len(r.Columns) > 5 {
			t.Fatalf("fig14 row %q has %d top categories", r.Label, len(r.Columns))
		}
	}
	f15, err := Fig15(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Rows) == 0 {
		t.Fatal("fig15 produced no rows")
	}
	modes := map[string]bool{}
	for _, r := range f15.Rows {
		if strings.HasPrefix(r.Label, "share of move time: ") {
			modes[strings.TrimPrefix(r.Label, "share of move time: ")] = true
		}
	}
	if !modes["walk"] {
		t.Fatalf("fig15 mode shares missing walking: %v", modes)
	}
	f17, err := Fig17(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f17.Rows) < 4 {
		t.Fatalf("fig17 rows = %d", len(f17.Rows))
	}
	for _, r := range f17.Rows {
		if r.Values["count"] <= 0 {
			t.Fatalf("fig17 stage %q has no observations", r.Label)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow; skipped in -short mode")
	}
	env := smallEnv(t)
	mm, err := AblationMapMatching(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Rows) != 5 {
		t.Fatalf("ablation-mapmatch rows = %d", len(mm.Rows))
	}
	// At the highest noise level the global matcher should not be worse
	// than the per-point baseline.
	last := mm.Rows[len(mm.Rows)-1]
	if last.Values["global"] < last.Values["nearest"]-0.02 {
		t.Fatalf("global matching (%v) should not be clearly worse than nearest (%v) under heavy noise",
			last.Values["global"], last.Values["nearest"])
	}
	hm, err := AblationHMM(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Rows) == 0 {
		t.Fatal("ablation-hmm produced no rows")
	}
	for _, r := range hm.Rows {
		if r.Values["hmm"] < 0 || r.Values["hmm"] > 1 || r.Values["nearest"] < 0 || r.Values["nearest"] > 1 {
			t.Fatalf("accuracy out of range: %+v", r.Values)
		}
	}
}
