package experiments

import (
	"fmt"

	"semitri"
	"semitri/internal/analytics"
	"semitri/internal/core"
	"semitri/internal/obs"
	"semitri/internal/stats"
	"semitri/internal/workload"
)

// peopleRun bundles a processed people dataset so several figures can share
// one (comparatively expensive) pipeline run.
type peopleRun struct {
	dataset  *workload.Dataset
	pipeline *semitri.Pipeline
	result   *semitri.Result
}

// runPeople generates and processes the people dataset used by Table 2 and
// Figs. 12-17. Six users over a scaled number of days, mirroring the six
// profiled users of Table 2.
func runPeople(env *Env) (*peopleRun, error) {
	cfg := workload.DefaultPeopleConfig(6, env.scaleInt(5), env.Seed+10)
	ds, err := workload.GeneratePeople(env.City, cfg)
	if err != nil {
		return nil, err
	}
	p, res, err := runPipeline(env, ds, semitri.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &peopleRun{dataset: ds, pipeline: p, result: res}, nil
}

// Table2 reproduces Table 2: the people-trajectory dataset inventory
// (per-user days, GPS record counts and the sizes of the semantic sources).
func Table2(env *Env) (*Table, error) {
	run, err := runPeople(env)
	if err != nil {
		return nil, err
	}
	st := run.pipeline.Store()
	counts := analytics.PerUserCounts(st, run.dataset.Objects)
	t := &Table{
		ID:    "table2",
		Title: "People trajectory dataset (synthetic stand-in for the Nokia smartphone data)",
		Notes: []string{
			"paper: 185 users, 23,188 daily trajectories, 7,306,044 GPS records; 6 profiled users with 45k-200k records each",
			fmt.Sprintf("semantic sources: %d landuse cells, %d road segments, %d POIs",
				env.City.Landuse.NumCells(), env.City.Roads.NumSegments(), env.City.POIs.Len()),
		},
	}
	cols := []string{"gps_records", "daily_trajectories", "stops", "moves"}
	var totalRecords, totalTrajs int
	for _, c := range counts {
		t.Rows = append(t.Rows, Row{
			Label: c.Object, Columns: cols,
			Values: map[string]float64{
				"gps_records":        float64(c.GPSRecords),
				"daily_trajectories": float64(c.Trajectories),
				"stops":              float64(c.Stops),
				"moves":              float64(c.Moves),
			},
		})
		totalRecords += c.GPSRecords
		totalTrajs += c.Trajectories
	}
	t.Rows = append(t.Rows, Row{
		Label: "total", Columns: []string{"gps_records", "daily_trajectories"},
		Values: map[string]float64{
			"gps_records": float64(totalRecords), "daily_trajectories": float64(totalTrajs)},
	})
	return t, nil
}

// Fig12 reproduces Fig. 12: the log-log distribution of the number of GPS
// records per trajectory, per move and per stop for the people dataset.
func Fig12(env *Env) (*Table, error) {
	run, err := runPeople(env)
	if err != nil {
		return nil, err
	}
	trajs, moves, stops := analytics.EpisodeSizeDistributions(run.pipeline.Store())
	t := &Table{
		ID:    "fig12",
		Title: "Log-log distribution of GPS records per trajectory / move / stop (people data)",
		Notes: []string{
			"paper: moves and trajectories reach large record counts (>10^3) while stop sizes mostly stay between 10^1 and a few 10^2",
		},
	}
	addSeries := func(name string, bins []stats.Bin) {
		for _, b := range bins {
			t.Rows = append(t.Rows, Row{
				Label:   fmt.Sprintf("%s >=%.0f records", name, b.Lower),
				Columns: []string{"count"},
				Values:  map[string]float64{"count": float64(b.Count)},
			})
		}
	}
	addSeries("trajectory", trajs.Bins())
	addSeries("move", moves.Bins())
	addSeries("stop", stops.Bins())
	return t, nil
}

// Fig13 reproduces Fig. 13: per-user GPS record, trajectory, stop and move
// counts for the six profiled users.
func Fig13(env *Env) (*Table, error) {
	run, err := runPeople(env)
	if err != nil {
		return nil, err
	}
	counts := analytics.PerUserCounts(run.pipeline.Store(), run.dataset.Objects)
	t := &Table{
		ID:    "fig13",
		Title: "Per-user GPS / trajectory / stop / move counts (6 users)",
		Notes: []string{"paper: GPS counts plotted divided by 100 to emphasise the compression from records to episodes"},
	}
	cols := []string{"gps_div100", "trajectories", "stops", "moves"}
	for _, c := range counts {
		t.Rows = append(t.Rows, Row{
			Label: c.Object, Columns: cols,
			Values: map[string]float64{
				"gps_div100":   float64(c.GPSRecords) / 100,
				"trajectories": float64(c.Trajectories),
				"stops":        float64(c.Stops),
				"moves":        float64(c.Moves),
			},
		})
	}
	return t, nil
}

// Fig14 reproduces Fig. 14: the land-use category distribution per user with
// the top-5 categories, showing the per-user variation the paper highlights.
func Fig14(env *Env) (*Table, error) {
	run, err := runPeople(env)
	if err != nil {
		return nil, err
	}
	st := run.pipeline.Store()
	t := &Table{
		ID:    "fig14",
		Title: "Per-user land-use category distribution and top-5 categories",
		Notes: []string{
			"paper: building (1.2) and transportation (1.3) dominate (~61% combined for people vs ~83% for taxis), with user-specific categories in the tail",
		},
	}
	for _, obj := range run.dataset.Objects {
		d := analytics.LanduseDistribution(st, []string{obj}, nil)
		top := d.TopN(5)
		row := Row{Label: obj + " top5: " + fmt.Sprint(top), Columns: nil, Values: map[string]float64{}}
		for _, cat := range top {
			row.Columns = append(row.Columns, cat)
			row.Values[cat] = d.Share(cat)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig15 reproduces Figs. 15/16: the move annotation of a commute, i.e. the
// sequence of matched road segments with inferred transportation modes for a
// user whose preferred mode is the metro (Fig. 15) and the aggregate share
// of move time per mode across all users (Figs. 15/16 combined view).
func Fig15(env *Env) (*Table, error) {
	run, err := runPeople(env)
	if err != nil {
		return nil, err
	}
	st := run.pipeline.Store()
	t := &Table{
		ID:    "fig15",
		Title: "Move annotation: transport modes of matched road sequences (Figs. 15/16)",
		Notes: []string{
			"paper: a home-office trip decomposes into walk -> metro (M1) -> walk; other users use bike or bus with walking at both ends",
		},
	}
	modeDist := analytics.ModeDistribution(st, semitri.InterpretationLine)
	for _, mode := range sortedKeys(modeDist.Shares()) {
		t.Rows = append(t.Rows, Row{
			Label:   "share of move time: " + mode,
			Columns: []string{"share"},
			Values:  map[string]float64{"share": modeDist.Share(mode)},
		})
	}
	// Mode sequence of one concrete commute (the first trajectory of the
	// metro user, user-004 by construction of the workload profile).
	var exampleID string
	for _, id := range st.TrajectoryIDs("user-004") {
		exampleID = id
		break
	}
	if exampleID != "" {
		if lineTraj, ok := st.Structured(exampleID, semitri.InterpretationLine); ok {
			seq := modeSequence(lineTraj)
			for i, leg := range seq {
				t.Rows = append(t.Rows, Row{
					Label:   fmt.Sprintf("example leg %02d: %s via %s", i+1, leg.road, leg.mode),
					Columns: []string{"duration_s"},
					Values:  map[string]float64{"duration_s": leg.seconds},
				})
			}
		}
	}
	return t, nil
}

type modeLeg struct {
	mode    string
	road    string
	seconds float64
}

// modeSequence collapses consecutive tuples with the same mode into legs.
func modeSequence(st *core.StructuredTrajectory) []modeLeg {
	var out []modeLeg
	for _, tp := range st.Tuples {
		mode := tp.Annotations.Value(core.AnnTransportMode)
		road := tp.Annotations.Value(core.AnnRoadName)
		if len(out) > 0 && out[len(out)-1].mode == mode {
			out[len(out)-1].seconds += tp.Duration().Seconds()
			continue
		}
		out = append(out, modeLeg{mode: mode, road: road, seconds: tp.Duration().Seconds()})
	}
	return out
}

// Fig17 reproduces Fig. 17: the average per-trajectory latency of each
// pipeline stage (episode computation, episode storage, map matching,
// storing matched results, land-use join), read from the ingest stage
// histograms the running process exports. Absolute values are much smaller
// than the paper's (embedded store vs PostgreSQL over a network); the
// ordering — storage-dominated, annotation cheap — is the reproduced claim.
func Fig17(env *Env) (*Table, error) {
	before := obs.Default().Numeric()
	if _, err := runPeople(env); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig17",
		Title: "Latency per pipeline stage (average per trajectory)",
		Notes: []string{
			"paper: per daily trajectory 0.008 s compute episodes, 3.959 s store episodes, 0.162 s map matching, 0.292 s store match results, 0.088 s landuse join",
			"reproduction: absolute values differ (embedded store vs PostgreSQL); compare the ordering of stages",
			"avg_ms is stage time per closed trajectory (the trajectories column, equal on every row); count is the timed calls behind it: every call, except compute episode, which times 1 record in 64, is scaled to all records and leaves out the tracker's end-of-trajectory flush",
		},
	}
	for _, l := range obs.IngestStageLatencies(before, obs.Default().Numeric()) {
		t.Rows = append(t.Rows, Row{
			Label:   l.Stage,
			Columns: []string{"avg_ms", "count", "trajectories"},
			Values: map[string]float64{
				"avg_ms":       float64(l.PerTrajectory.Microseconds()) / 1000.0,
				"count":        float64(l.Count),
				"trajectories": float64(l.Trajectories),
			},
		})
	}
	return t, nil
}
