// Package line implements SeMiTri's Semantic Line Annotation Layer (§4.2,
// Algorithm 2): a global map-matching algorithm based on the point–segment
// distance (Eq. 1), the normalised localScore (Eq. 2) and the
// kernel-weighted globalScore over a context window (Eqs. 3–4), followed by
// transportation-mode inference (walking, bicycle, bus, metro) from the
// velocity/acceleration profile of each matched run of segments and the
// class of the underlying road.
//
// The paper parameterises the context window by a global view radius R and
// a kernel width σ expressed as a multiple of R (Fig. 10 sweeps R ∈ 1..5 and
// σ ∈ {0.5R, 1R, 1.5R, 2R}). Here R counts neighbouring GPS points on each
// side of the matched point, and σ converts to metres through the mean
// point spacing of the episode, which preserves the behaviour of the
// original formulation on both high-rate and low-rate trajectories.
//
// A per-point nearest-segment matcher (the classic geometric baseline
// criticised in §4.2) is included for the ablation experiments.
//
// Ingestion calls the cursored AnnotateMoveCursor. The uncursored
// AnnotateMove is the reference implementation the parity tests compare the
// cached path against; it has no production caller on purpose.
package line

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/roadnet"
	"semitri/internal/spatial"
)

// Mode is an inferred transportation mode.
type Mode string

// The transportation modes considered in the paper's experiments (§4.2).
const (
	ModeWalk    Mode = "walk"
	ModeBicycle Mode = "bicycle"
	ModeBus     Mode = "bus"
	ModeMetro   Mode = "metro"
	ModeCar     Mode = "car"
)

// Config holds the tunable parameters of the global map-matching algorithm.
type Config struct {
	// CandidateRadius (metres) bounds the candidate road segments considered
	// for each GPS point (candidateSegs(Q) in Alg. 2, served by the R*-tree).
	CandidateRadius float64
	// GlobalRadius R is the number of neighbouring points on each side of Q
	// included in the context window (window size 2R).
	GlobalRadius int
	// SigmaFactor expresses the kernel width σ as a multiple of R; the
	// effective bandwidth in metres is SigmaFactor * R * meanSpacing.
	SigmaFactor float64
	// VehicleMode, when non-empty, overrides mode inference (the paper notes
	// that the transportation mode of vehicle trajectories is trivially the
	// vehicle type).
	VehicleMode Mode
}

// DefaultConfig returns the parameters found best in the sensitivity
// analysis of Fig. 10: R = 2, σ = 0.5R, with a 60 m candidate radius.
func DefaultConfig() Config {
	return Config{CandidateRadius: 60, GlobalRadius: 2, SigmaFactor: 0.5}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CandidateRadius <= 0 {
		return errors.New("line: CandidateRadius must be positive")
	}
	if c.GlobalRadius < 0 {
		return errors.New("line: GlobalRadius must be non-negative")
	}
	if c.SigmaFactor <= 0 {
		return errors.New("line: SigmaFactor must be positive")
	}
	return nil
}

// Annotator matches move episodes against a road network. All spatial
// queries — candidate-segment selection and the nearest-segment fallback —
// go through the spatial.Index captured from the network at construction.
// It is safe for concurrent use once constructed (the network is
// read-only); Cursors are per-goroutine.
type Annotator struct {
	net *roadnet.Network
	idx spatial.Index
	cfg Config
}

// NewAnnotator returns a line annotator over the given network. The network
// must not be mutated afterwards (its bulk-loaded index is captured here).
func NewAnnotator(net *roadnet.Network, cfg Config) (*Annotator, error) {
	if net == nil {
		return nil, errors.New("line: nil network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Annotator{net: net, idx: net.SpatialIndex(), cfg: cfg}, nil
}

// Config returns the annotator's configuration.
func (a *Annotator) Config() Config { return a.cfg }

// Cursor is the per-object locality cache of the line layer: the last
// candidate-segment query, inflated so nearby GPS records are answered by a
// slice filter instead of an index descent. Not safe for concurrent use;
// keep one per moving object.
type Cursor struct {
	cand *spatial.Cursor
}

// NewCursor returns an empty locality cursor for the annotator.
func (a *Annotator) NewCursor() *Cursor {
	return &Cursor{cand: spatial.NewCursorSorted(a.idx, func(x, y spatial.Item) bool {
		return x.Value.(*roadnet.Segment).ID < y.Value.(*roadnet.Segment).ID
	})}
}

// Stats returns the candidate-cache hit/miss counters.
func (c *Cursor) Stats() (hits, misses uint64) { return c.cand.Stats() }

// Candidates returns the segments whose bounding box lies within radius of
// p, ordered by segment id — candidateSegs(Q) of Alg. 2, answered through
// the spatial.Index interface and, when cur is non-nil, its locality cache.
// With a cursor the returned slice is only valid until the next call.
func (a *Annotator) Candidates(p geo.Point, radius float64, cur *Cursor) []*roadnet.Segment {
	var items []spatial.Item
	if cur != nil {
		items = cur.cand.WithinDistance(p, radius) // already sorted by id
	} else {
		items = spatial.WithinDistance(a.idx, p, radius)
	}
	out := make([]*roadnet.Segment, 0, len(items))
	for _, it := range items {
		out = append(out, it.Value.(*roadnet.Segment))
	}
	if cur == nil {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	}
	return out
}

// MatchPoints runs the global map-matching algorithm over a sequence of GPS
// positions and returns, for each point, the id of the matched road segment
// (-1 when no candidate lies within the candidate radius and no fallback is
// available). This is steps 1–5 of Algorithm 2.
func (a *Annotator) MatchPoints(points []geo.Point) []int {
	return a.MatchPointsCursor(points, nil)
}

// MatchPointsCursor is MatchPoints with a per-object locality cursor; cur
// may be nil. Cached and uncached results are identical.
func (a *Annotator) MatchPointsCursor(points []geo.Point, cur *Cursor) []int {
	n := len(points)
	matched := make([]int, n)
	if n == 0 {
		return matched
	}
	// Candidate sets and local scores per point.
	candidates := make([][]candidate, n)
	for i, p := range points {
		segs := a.Candidates(p, a.cfg.CandidateRadius, cur)
		if len(segs) == 0 {
			// When no candidate lies within the radius, the exact nearest
			// segment keeps the annotation total even for sparse data
			// (heterogeneous quality); the bulk-loaded index answers it with
			// no scan fallback.
			if s, _, ok := roadnet.NearestSegmentIn(a.idx, p); ok {
				segs = []*roadnet.Segment{s}
			}
		}
		if len(segs) == 0 {
			candidates[i] = nil
			continue
		}
		dmin := math.Inf(1)
		dists := make([]float64, len(segs))
		for j, s := range segs {
			d := s.Geom.DistanceToPoint(p)
			dists[j] = d
			if d < dmin {
				dmin = d
			}
		}
		cs := make([]candidate, len(segs))
		for j, s := range segs {
			// Eq. 2: localScore = dmin / d, with the convention that a point
			// lying exactly on its closest segment scores 1 for it.
			var score float64
			switch {
			case dists[j] == 0:
				score = 1
			case dmin == 0:
				score = 0
			default:
				score = dmin / dists[j]
			}
			cs[j] = candidate{seg: s, local: score}
		}
		candidates[i] = cs
	}
	// Mean spacing for converting the kernel width to metres.
	meanSpacing := 1.0
	if n > 1 {
		var total float64
		for i := 1; i < n; i++ {
			total += points[i].DistanceTo(points[i-1])
		}
		meanSpacing = total / float64(n-1)
		if meanSpacing <= 0 {
			meanSpacing = 1
		}
	}
	sigma := a.cfg.SigmaFactor * float64(maxInt(a.cfg.GlobalRadius, 1)) * meanSpacing
	radiusMeters := float64(maxInt(a.cfg.GlobalRadius, 1)) * meanSpacing * 1.5
	// Global scores (Eqs. 3-4).
	for i := range points {
		if len(candidates[i]) == 0 {
			matched[i] = -1
			continue
		}
		lo := maxInt(0, i-a.cfg.GlobalRadius)
		hi := minInt(n-1, i+a.cfg.GlobalRadius)
		bestScore := math.Inf(-1)
		bestID := -1
		for _, c := range candidates[i] {
			var num, den float64
			for k := lo; k <= hi; k++ {
				d := points[i].DistanceTo(points[k])
				var w float64
				if k == i {
					w = 1
				} else if d < radiusMeters {
					w = math.Exp(-d * d / (2 * sigma * sigma))
				} else {
					continue
				}
				num += w * localScoreFor(candidates[k], c.seg.ID)
				den += w
			}
			if den == 0 {
				continue
			}
			score := num / den
			if score > bestScore {
				bestScore = score
				bestID = c.seg.ID
			}
		}
		matched[i] = bestID
	}
	return matched
}

// candidate couples a candidate road segment with its localScore (Eq. 2)
// for one GPS point.
type candidate struct {
	seg   *roadnet.Segment
	local float64
}

func localScoreFor(cs []candidate, segID int) float64 {
	for _, c := range cs {
		if c.seg.ID == segID {
			return c.local
		}
	}
	return 0
}

// MatchPointsNearest is the geometric per-point baseline: each point is
// matched independently to its nearest segment by the Eq. 1 distance. It is
// the comparison target of ablation A1.
func (a *Annotator) MatchPointsNearest(points []geo.Point) []int {
	out := make([]int, len(points))
	for i, p := range points {
		if s, _, ok := roadnet.NearestSegmentIn(a.idx, p); ok {
			out[i] = s.ID
		} else {
			out[i] = -1
		}
	}
	return out
}

// InferMode derives the transportation mode of a run of points matched to a
// segment, from the road class and the observed speed profile (step 6 of
// Algorithm 2). The thresholds follow the speed ranges of the modes used in
// the paper's people-trajectory experiments.
func InferMode(class roadnet.Class, avgSpeed, maxSpeed float64) Mode {
	if class == roadnet.MetroRail {
		return ModeMetro
	}
	switch {
	case avgSpeed < 2.2 && maxSpeed < 4:
		return ModeWalk
	case avgSpeed < 6.5 && class != roadnet.Highway:
		return ModeBicycle
	case class == roadnet.Highway || avgSpeed >= 18:
		return ModeCar
	default:
		return ModeBus
	}
}

// SegmentRun is one maximal run of consecutive GPS records matched to the
// same road segment, with its speed profile and inferred mode.
type SegmentRun struct {
	SegmentID int
	Class     roadnet.Class
	Name      string
	StartIdx  int
	EndIdx    int
	AvgSpeed  float64
	MaxSpeed  float64
	Mode      Mode
}

// AnnotateMove matches the records of a move episode to road segments and
// returns (a) the structured tuples (segment, time-in, time-out, mode) of
// Tline and (b) the underlying segment runs for diagnostics. Records that
// could not be matched are skipped (they produce no tuple).
func (a *Annotator) AnnotateMove(t *gps.RawTrajectory, ep *episode.Episode) ([]*core.EpisodeTuple, []SegmentRun, error) {
	return a.AnnotateMoveCursor(t, ep, nil)
}

// AnnotateMoveCursor is AnnotateMove with a per-object locality cursor; cur
// may be nil. Cached and uncached results are identical.
func (a *Annotator) AnnotateMoveCursor(t *gps.RawTrajectory, ep *episode.Episode, cur *Cursor) ([]*core.EpisodeTuple, []SegmentRun, error) {
	if t == nil || ep == nil {
		return nil, nil, errors.New("line: nil trajectory or episode")
	}
	recs := ep.Records(t)
	if len(recs) == 0 {
		return nil, nil, errors.New("line: episode has no records")
	}
	points := make([]geo.Point, len(recs))
	for i, r := range recs {
		points[i] = r.Position
	}
	matched := a.MatchPointsCursor(points, cur)
	// Group consecutive records matched to the same segment.
	var runs []SegmentRun
	i := 0
	for i < len(matched) {
		if matched[i] < 0 {
			i++
			continue
		}
		j := i
		for j+1 < len(matched) && matched[j+1] == matched[i] {
			j++
		}
		seg, err := a.net.Segment(matched[i])
		if err != nil {
			return nil, nil, fmt.Errorf("line: %w", err)
		}
		avg, max := speedProfile(recs[i : j+1])
		mode := a.cfg.VehicleMode
		if mode == "" {
			mode = InferMode(seg.Class, avg, max)
		}
		runs = append(runs, SegmentRun{
			SegmentID: seg.ID,
			Class:     seg.Class,
			Name:      seg.Name,
			StartIdx:  ep.StartIdx + i,
			EndIdx:    ep.StartIdx + j,
			AvgSpeed:  avg,
			MaxSpeed:  max,
			Mode:      mode,
		})
		i = j + 1
	}
	tuples := make([]*core.EpisodeTuple, 0, len(runs))
	for _, run := range runs {
		seg, _ := a.net.Segment(run.SegmentID)
		place := &core.Place{
			ID:       fmt.Sprintf("seg-%d", seg.ID),
			Kind:     core.LinePlace,
			Name:     seg.Name,
			Category: seg.Class.String(),
			Extent:   seg.Geom.Bounds(),
		}
		tuple := &core.EpisodeTuple{
			Kind:    episode.Move,
			Place:   place,
			TimeIn:  t.Records[run.StartIdx].Time,
			TimeOut: t.Records[run.EndIdx].Time,
			Episode: ep,
		}
		tuple.Annotations.Add(
			core.Annotation{Key: core.AnnRoadClass, Value: seg.Class.String(), Confidence: 1, Source: "line"},
			core.Annotation{Key: core.AnnRoadName, Value: seg.Name, Confidence: 1, Source: "line"},
			core.Annotation{Key: core.AnnTransportMode, Value: string(run.Mode), Confidence: 0.9, Source: "line"})
		tuples = append(tuples, tuple)
	}
	return tuples, runs, nil
}

// speedProfile returns the mean and maximum instantaneous speed over a run
// of records.
func speedProfile(recs []gps.Record) (avg, max float64) {
	if len(recs) < 2 {
		return 0, 0
	}
	var dist float64
	for i := 1; i < len(recs); i++ {
		d := recs[i].Position.DistanceTo(recs[i-1].Position)
		dist += d
		dt := recs[i].Time.Sub(recs[i-1].Time).Seconds()
		if dt > 0 {
			if s := d / dt; s > max {
				max = s
			}
		}
	}
	dur := recs[len(recs)-1].Time.Sub(recs[0].Time).Seconds()
	if dur > 0 {
		avg = dist / dur
	}
	return avg, max
}

// Accuracy compares matched segment ids against ground truth and returns the
// fraction of points matched to the true segment (the metric of Fig. 10).
// Points with no ground truth (-1 entries in truth) are ignored.
func Accuracy(matched, truth []int) float64 {
	if len(matched) != len(truth) || len(matched) == 0 {
		return 0
	}
	var considered, correct int
	for i := range matched {
		if truth[i] < 0 {
			continue
		}
		considered++
		if matched[i] == truth[i] {
			correct++
		}
	}
	if considered == 0 {
		return 0
	}
	return float64(correct) / float64(considered)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
