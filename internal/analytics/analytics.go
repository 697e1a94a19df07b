// Package analytics implements SeMiTri's Semantic Trajectory Analytics
// Layer (Fig. 2): aggregate statistics computed over the contents of the
// semantic trajectory store, at all abstraction levels. These are the
// computations behind the evaluation artefacts of §5 — episode-size
// distributions (Fig. 12), per-user counts (Fig. 13), stop/trajectory
// category distributions (Fig. 11), land-use profiles (Figs. 9/14), storage
// compression (§5.2) and the latency breakdown of Fig. 17.
package analytics

import (
	"sort"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/stats"
	"semitri/internal/store"
)

// EpisodeSizeDistributions returns log-histograms of the number of GPS
// records per trajectory, per move episode and per stop episode across the
// whole store (the three series of the log-log plot in Fig. 12).
func EpisodeSizeDistributions(s *store.Store) (trajectories, moves, stops *stats.LogHistogram) {
	trajectories = stats.NewLogHistogram(2)
	moves = stats.NewLogHistogram(2)
	stops = stats.NewLogHistogram(2)
	for _, id := range s.TrajectoryIDs("") {
		if n, ok := s.TrajectoryLen(id); ok {
			trajectories.Add(float64(n))
		}
		for _, ep := range s.Episodes(id) {
			if ep.Kind == episode.Stop {
				stops.Add(float64(ep.RecordCount))
			} else {
				moves.Add(float64(ep.RecordCount))
			}
		}
	}
	return trajectories, moves, stops
}

// UserCounts summarises one object's stored data: GPS records, daily
// trajectories, stops and moves (one bar group of Fig. 13).
type UserCounts struct {
	Object       string
	GPSRecords   int
	Trajectories int
	Stops        int
	Moves        int
}

// PerUserCounts computes UserCounts for every object present in the store,
// ordered by object id.
func PerUserCounts(s *store.Store, objects []string) []UserCounts {
	out := make([]UserCounts, 0, len(objects))
	for _, obj := range objects {
		uc := UserCounts{Object: obj, GPSRecords: s.RecordLen(obj)}
		for _, id := range s.TrajectoryIDs(obj) {
			uc.Trajectories++
			for _, ep := range s.Episodes(id) {
				if ep.Kind == episode.Stop {
					uc.Stops++
				} else {
					uc.Moves++
				}
			}
		}
		out = append(out, uc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// AnnotationDistribution aggregates, over every stored structured trajectory
// of the given interpretation, the share of stop time (weight = seconds) per
// value of the annotation key. With key core.AnnPOICategory this yields the
// "stop" column of Fig. 11.
func AnnotationDistribution(s *store.Store, interpretation, key string) *stats.Distribution {
	d := stats.NewDistribution()
	for _, id := range s.TrajectoryIDs("") {
		st, ok := s.Structured(id, interpretation)
		if !ok {
			continue
		}
		for _, tp := range st.Tuples {
			if tp.Kind != episode.Stop {
				continue
			}
			if v := tp.Annotations.Value(key); v != "" {
				d.Add(v, tp.Duration().Seconds())
			}
		}
	}
	return d
}

// StopCountDistribution aggregates the share of stops (unweighted counts)
// per value of the annotation key across the store.
func StopCountDistribution(s *store.Store, interpretation, key string) *stats.Distribution {
	d := stats.NewDistribution()
	for _, id := range s.TrajectoryIDs("") {
		st, ok := s.Structured(id, interpretation)
		if !ok {
			continue
		}
		for _, tp := range st.Tuples {
			if tp.Kind != episode.Stop {
				continue
			}
			if v := tp.Annotations.Value(key); v != "" {
				d.AddCount(v)
			}
		}
	}
	return d
}

// TrajectoryCategoryDistribution classifies every stored trajectory with
// Equation 8 (the annotation value accumulating the most stop time) and
// returns the share of trajectories per category (the "trajectory" column
// of Fig. 11).
func TrajectoryCategoryDistribution(s *store.Store, interpretation, key string) *stats.Distribution {
	d := stats.NewDistribution()
	for _, id := range s.TrajectoryIDs("") {
		st, ok := s.Structured(id, interpretation)
		if !ok {
			continue
		}
		if cat, ok := st.Category(key); ok {
			d.AddCount(cat)
		}
	}
	return d
}

// LanduseDistribution aggregates, across the store, the share of GPS records
// per land-use category using the region-interpretation tuples and weighting
// each tuple by the record count of its backing episode when available (and
// by its duration in seconds otherwise). With no object filter it yields the
// "trajectory" column of Fig. 9; filtering by episode kind yields the move
// and stop columns.
func LanduseDistribution(s *store.Store, objects []string, kindFilter *episode.Kind) *stats.Distribution {
	d := stats.NewDistribution()
	ids := s.TrajectoryIDs("")
	if len(objects) > 0 {
		ids = nil
		for _, obj := range objects {
			ids = append(ids, s.TrajectoryIDs(obj)...)
		}
	}
	for _, id := range ids {
		st, ok := s.Structured(id, "region-episodes")
		if !ok {
			continue
		}
		for _, tp := range st.Tuples {
			if kindFilter != nil && tp.Kind != *kindFilter {
				continue
			}
			v := tp.Annotations.Value(core.AnnLanduse)
			if v == "" {
				continue
			}
			weight := tp.Duration().Seconds()
			if tp.Episode != nil {
				weight = float64(tp.Episode.RecordCount)
			}
			d.Add(v, weight)
		}
	}
	return d
}

// CompressionSummary reports the storage saving of the region-level
// representation relative to the raw GPS records across the whole store
// (the ≈99.7% claim of §5.2, which counts the distinct annotated land-use
// cells needed to describe the whole dataset).
type CompressionSummary struct {
	GPSRecords int
	// RegionTuples is the number of merged (place, time-in, time-out) tuples.
	RegionTuples int
	// DistinctCells is the number of distinct region places referenced.
	DistinctCells int
	// Ratio is 1 - DistinctCells/GPSRecords, the figure comparable to the
	// paper's "3M records annotated with 8,385 cells".
	Ratio float64
}

// Compression computes the CompressionSummary over the store using the
// record-level region interpretation.
func Compression(s *store.Store) CompressionSummary {
	var records, tuples int
	cells := map[string]bool{}
	for _, id := range s.TrajectoryIDs("") {
		if n, ok := s.TrajectoryLen(id); ok {
			records += n
		}
		if st, ok := s.Structured(id, "region"); ok {
			tuples += len(st.Tuples)
			for _, tp := range st.Tuples {
				if pid := tp.PlaceID(); pid != "" {
					cells[pid] = true
				}
			}
		}
	}
	return CompressionSummary{
		GPSRecords:    records,
		RegionTuples:  tuples,
		DistinctCells: len(cells),
		Ratio:         stats.CompressionRatio(records, len(cells)),
	}
}

// ModeDistribution aggregates, across the store's merged interpretation, the
// share of move time per transportation mode (a people-trajectory summary
// used alongside Figs. 15/16).
func ModeDistribution(s *store.Store, interpretation string) *stats.Distribution {
	d := stats.NewDistribution()
	for _, id := range s.TrajectoryIDs("") {
		st, ok := s.Structured(id, interpretation)
		if !ok {
			continue
		}
		for _, tp := range st.Tuples {
			if tp.Kind != episode.Move {
				continue
			}
			if m := tp.Annotations.Value(core.AnnTransportMode); m != "" {
				d.Add(m, tp.Duration().Seconds())
			}
		}
	}
	return d
}
