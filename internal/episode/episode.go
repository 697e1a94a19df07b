// Package episode implements the stop/move computation of SeMiTri's
// Trajectory Computation Layer: segmenting a raw trajectory into a sequence
// of maximal episodes according to spatio-temporal predicates (velocity,
// density, temporal and spatial separation policies described in §3.3 and
// in the companion work [30]).
//
// A stop episode is a maximal subsequence during which the moving object
// stays (almost) stationary for at least a minimum duration; move episodes
// are the maximal subsequences between stops. The output episodes carry the
// index range into the raw trajectory so the annotation layers can access
// the underlying GPS points.
//
// Ingestion runs the incremental Tracker. The batch kernel Detect is the
// reference implementation the parity tests compare the Tracker against; it
// has no production caller on purpose.
package episode

import (
	"errors"
	"fmt"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
)

// Kind distinguishes stop and move episodes.
type Kind int

const (
	// Move is an episode during which the object is travelling.
	Move Kind = iota
	// Stop is an episode during which the object stays within a small area.
	Stop
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Stop {
		return "stop"
	}
	return "move"
}

// Episode is a maximal subsequence of a raw trajectory complying with the
// stop or move predicate (the trajectory-structuring unit of Definition 4).
type Episode struct {
	TrajectoryID string
	ObjectID     string
	Kind         Kind
	// StartIdx and EndIdx delimit the record range [StartIdx, EndIdx] of the
	// raw trajectory covered by this episode (inclusive).
	StartIdx int
	EndIdx   int
	Start    time.Time
	End      time.Time
	// Center is the mean position of the episode's records (used as the stop
	// location for point annotation).
	Center geo.Point
	// Bounds is the spatial bounding rectangle of the episode's records.
	Bounds geo.Rect
	// AvgSpeed is the mean instantaneous speed over the episode in m/s.
	AvgSpeed float64
	// MaxSpeed is the maximum instantaneous speed over the episode in m/s.
	MaxSpeed float64
	// Distance is the path length travelled during the episode in metres.
	Distance float64
	// RecordCount is the number of GPS records covered by the episode.
	RecordCount int
}

// Duration returns the temporal extent of the episode.
func (e *Episode) Duration() time.Duration { return e.End.Sub(e.Start) }

// Records returns the slice of raw records covered by the episode.
func (e *Episode) Records(t *gps.RawTrajectory) []gps.Record {
	if t == nil || e.StartIdx < 0 || e.EndIdx >= len(t.Records) || e.StartIdx > e.EndIdx {
		return nil
	}
	return t.Records[e.StartIdx : e.EndIdx+1]
}

// Config controls the stop/move detection policies. A record is considered
// part of a candidate stop when its speed is below SpeedThreshold; a
// candidate becomes a stop when it lasts at least MinStopDuration and its
// spatial extent stays within StopRadius (the density/spatial policy).
type Config struct {
	// SpeedThreshold in m/s below which a record counts as stationary.
	SpeedThreshold float64
	// MinStopDuration is the minimum duration of a stop episode.
	MinStopDuration time.Duration
	// StopRadius is the maximum radius of the positions within a stop.
	StopRadius float64
	// MinMoveRecords drops (merges into neighbouring stops) move episodes
	// with fewer records than this, which absorbs jitter between stops.
	MinMoveRecords int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SpeedThreshold <= 0 {
		return errors.New("episode: SpeedThreshold must be positive")
	}
	if c.MinStopDuration <= 0 {
		return errors.New("episode: MinStopDuration must be positive")
	}
	if c.StopRadius <= 0 {
		return errors.New("episode: StopRadius must be positive")
	}
	return nil
}

// DefaultConfig mirrors the settings used for the people/vehicle experiments:
// speed below 1.0 m/s for at least 3 minutes within a 100 m radius is a stop.
func DefaultConfig() Config {
	return Config{
		SpeedThreshold:  1.0,
		MinStopDuration: 3 * time.Minute,
		StopRadius:      100,
		MinMoveRecords:  3,
	}
}

// VehicleConfig is a preset suited to car/taxi trajectories sampled at high
// frequency: stops are parking/pick-up events of at least 2 minutes.
func VehicleConfig() Config {
	return Config{
		SpeedThreshold:  1.5,
		MinStopDuration: 2 * time.Minute,
		StopRadius:      80,
		MinMoveRecords:  5,
	}
}

// Detect segments the trajectory into an alternating sequence of stop and
// move episodes. The whole trajectory is covered: every record index belongs
// to exactly one episode, and consecutive episodes of the same kind are
// merged.
func Detect(t *gps.RawTrajectory, cfg Config) ([]*Episode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t == nil || len(t.Records) == 0 {
		return nil, errors.New("episode: empty trajectory")
	}
	if len(t.Records) == 1 {
		ep := buildEpisode(t, Stop, 0, 0)
		return []*Episode{ep}, nil
	}
	speeds := t.Speeds() // speeds[i] is the speed between record i and i+1
	// Label each record as stationary (candidate stop) or moving.
	stationary := make([]bool, len(t.Records))
	for i := range t.Records {
		var s float64
		switch {
		case i == 0:
			s = speeds[0]
		case i == len(t.Records)-1:
			s = speeds[len(speeds)-1]
		default:
			s = (speeds[i-1] + speeds[i]) / 2
		}
		stationary[i] = s < cfg.SpeedThreshold
	}
	// Build candidate runs and validate stop candidates against duration and
	// radius policies.
	type run struct {
		kind     Kind
		from, to int
	}
	var runs []run
	start := 0
	for i := 1; i <= len(stationary); i++ {
		if i == len(stationary) || stationary[i] != stationary[start] {
			kind := Move
			if stationary[start] {
				kind = Stop
			}
			runs = append(runs, run{kind: kind, from: start, to: i - 1})
			start = i
		}
	}
	mergeAdjacent := func(rs []run) []run {
		out := rs[:0:0]
		for _, r := range rs {
			if len(out) > 0 && out[len(out)-1].kind == r.kind {
				out[len(out)-1].to = r.to
				continue
			}
			out = append(out, r)
		}
		return out
	}
	// 1) Absorb brief moving interruptions between two stationary candidates
	//    (speed jitter within a stop) so a long stop is not fragmented into
	//    short candidates that would each fail the duration policy.
	if cfg.MinMoveRecords > 1 {
		for i := range runs {
			r := &runs[i]
			if r.kind == Move && r.to-r.from+1 < cfg.MinMoveRecords {
				prevStop := i > 0 && runs[i-1].kind == Stop
				nextStop := i < len(runs)-1 && runs[i+1].kind == Stop
				if prevStop && nextStop {
					r.kind = Stop
				}
			}
		}
		runs = mergeAdjacent(runs)
	}
	// 2) Validate stop candidates against the duration and radius policies;
	//    failing candidates are demoted to moves.
	for i := range runs {
		r := &runs[i]
		if r.kind == Stop {
			dur := t.Records[r.to].Time.Sub(t.Records[r.from].Time)
			radius := runRadius(t, r.from, r.to)
			if dur < cfg.MinStopDuration || radius > cfg.StopRadius {
				r.kind = Move
			}
		}
	}
	merged := mergeAdjacent(runs)
	episodes := make([]*Episode, 0, len(merged))
	for _, r := range merged {
		episodes = append(episodes, buildEpisode(t, r.kind, r.from, r.to))
	}
	return episodes, nil
}

func runRadius(t *gps.RawTrajectory, from, to int) float64 {
	return recordsRadius(t.Records, from, to)
}

// recordsRadius is runRadius over a bare record slice (global indices).
func recordsRadius(records []gps.Record, from, to int) float64 {
	pts := make([]geo.Point, 0, to-from+1)
	for i := from; i <= to; i++ {
		pts = append(pts, records[i].Position)
	}
	c := geo.Centroid(pts)
	var max float64
	for _, p := range pts {
		if d := p.DistanceTo(c); d > max {
			max = d
		}
	}
	return max
}

func buildEpisode(t *gps.RawTrajectory, kind Kind, from, to int) *Episode {
	return buildEpisodeRecords(t.ID, t.ObjectID, t.Records, kind, from, to)
}

// buildEpisodeRecords builds an episode over records[from:to+1] of the
// trajectory's full record slice; from/to are kept as global indices.
func buildEpisodeRecords(trajectoryID, objectID string, records []gps.Record, kind Kind, from, to int) *Episode {
	recs := records[from : to+1]
	pts := make([]geo.Point, len(recs))
	for i, r := range recs {
		pts[i] = r.Position
	}
	var dist, maxSpeed float64
	for i := 1; i < len(recs); i++ {
		d := recs[i].Position.DistanceTo(recs[i-1].Position)
		dist += d
		dt := recs[i].Time.Sub(recs[i-1].Time).Seconds()
		if dt > 0 {
			if s := d / dt; s > maxSpeed {
				maxSpeed = s
			}
		}
	}
	dur := recs[len(recs)-1].Time.Sub(recs[0].Time).Seconds()
	avg := 0.0
	if dur > 0 {
		avg = dist / dur
	}
	return &Episode{
		TrajectoryID: trajectoryID,
		ObjectID:     objectID,
		Kind:         kind,
		StartIdx:     from,
		EndIdx:       to,
		Start:        recs[0].Time,
		End:          recs[len(recs)-1].Time,
		Center:       geo.Centroid(pts),
		Bounds:       geo.BoundsOf(pts),
		AvgSpeed:     avg,
		MaxSpeed:     maxSpeed,
		Distance:     dist,
		RecordCount:  len(recs),
	}
}

// Stops filters the stop episodes from a detection result.
func Stops(episodes []*Episode) []*Episode { return filterKind(episodes, Stop) }

// Moves filters the move episodes from a detection result.
func Moves(episodes []*Episode) []*Episode { return filterKind(episodes, Move) }

func filterKind(episodes []*Episode, k Kind) []*Episode {
	var out []*Episode
	for _, e := range episodes {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// ValidateSequence checks the structural invariants of a detection result:
// full coverage of the trajectory, contiguous index ranges and alternation
// of kinds after merging.
func ValidateSequence(t *gps.RawTrajectory, episodes []*Episode) error {
	if len(episodes) == 0 {
		return errors.New("episode: empty sequence")
	}
	if episodes[0].StartIdx != 0 {
		return fmt.Errorf("episode: sequence starts at index %d, want 0", episodes[0].StartIdx)
	}
	if episodes[len(episodes)-1].EndIdx != len(t.Records)-1 {
		return fmt.Errorf("episode: sequence ends at index %d, want %d",
			episodes[len(episodes)-1].EndIdx, len(t.Records)-1)
	}
	for i := 1; i < len(episodes); i++ {
		if episodes[i].StartIdx != episodes[i-1].EndIdx+1 {
			return fmt.Errorf("episode: gap between episode %d and %d", i-1, i)
		}
		if episodes[i].Kind == episodes[i-1].Kind {
			return fmt.Errorf("episode: episodes %d and %d have the same kind %v", i-1, i, episodes[i].Kind)
		}
	}
	return nil
}
