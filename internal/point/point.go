// Package point implements SeMiTri's Semantic Point Annotation Layer (§4.3,
// Algorithm 3): inferring the POI category (and hence the likely activity)
// behind each stop episode with a hidden Markov model.
//
// The HMM components follow the paper exactly:
//
//   - π is the per-category POI frequency of the 3rd-party source
//     ("Initial Probabilities").
//   - A is the structured transition matrix of Fig. 6 (strong
//     self-transition, a weaker uniform off-diagonal, and a distinct row for
//     the "unknown" category), unless the caller supplies its own.
//   - B, the observation probability Pr(stop | Ci), is computed from the
//     Gaussian influence of each POI on the stop location, summed per
//     category (Lemma 1), over a discretized grid with neighbourhood
//     restriction (Figs. 7–8) for efficiency.
//
// Decoding uses the Viterbi algorithm from internal/hmm. A nearest-POI
// baseline (the one-to-one matching of prior work) is provided for the
// ablation experiments.
//
// Ingestion calls the cursored AnnotateStopsCursor. The uncursored
// AnnotateStops is the reference implementation the parity tests compare the
// cached path against (the ablation experiments call it too). Emissions, the
// uncursored emission model the unit tests check, has no production caller
// on purpose.
package point

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/hmm"
	"semitri/internal/poi"
	"semitri/internal/spatial"
)

// Config holds the tunable parameters of the point annotation layer.
type Config struct {
	// Sigma is the default standard deviation (metres) of the Gaussian
	// influence of a POI on a stop; it corresponds to σc in the paper and
	// can be overridden per category with CategorySigma.
	Sigma float64
	// CategorySigma optionally overrides Sigma per category (indexed by
	// poi.Category); zero entries fall back to Sigma.
	CategorySigma []float64
	// NeighborhoodCells is the radius, in grid cells, of the neighbourhood
	// considered when summing POI influences (the black rectangle of Fig. 7).
	NeighborhoodCells int
	// SelfTransition is the diagonal weight of the default transition matrix.
	SelfTransition float64
	// Transition optionally supplies a full transition matrix (5x5); when
	// nil the Fig. 6 style structured matrix is used.
	Transition [][]float64
}

// DefaultConfig returns the configuration used in the experiments: 60 m
// Gaussian influence, a 3-cell neighbourhood and the Fig. 6 transitions.
func DefaultConfig() Config {
	return Config{Sigma: 60, NeighborhoodCells: 3, SelfTransition: 0.8}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sigma <= 0 {
		return errors.New("point: Sigma must be positive")
	}
	if c.NeighborhoodCells < 1 {
		return errors.New("point: NeighborhoodCells must be at least 1")
	}
	if c.SelfTransition <= 0 || c.SelfTransition >= 1 {
		return errors.New("point: SelfTransition must be in (0,1)")
	}
	if c.CategorySigma != nil && len(c.CategorySigma) != poi.NumCategories {
		return fmt.Errorf("point: CategorySigma must have %d entries", poi.NumCategories)
	}
	if c.Transition != nil && len(c.Transition) != poi.NumCategories {
		return fmt.Errorf("point: Transition must be %dx%d", poi.NumCategories, poi.NumCategories)
	}
	return nil
}

// PaperTransitionMatrix reproduces the example state transition matrix of
// Fig. 6: strong self transitions for the four meaningful categories and a
// flatter row for the unknown category.
func PaperTransitionMatrix(selfProb float64) [][]float64 {
	if selfProb <= 0 || selfProb >= 1 {
		selfProb = 0.8
	}
	n := poi.NumCategories
	a := make([][]float64, n)
	off := (1 - selfProb) / float64(n-1)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		if poi.Category(i) == poi.Unknown {
			// Fig. 6 last row: 0.15 0.15 0.15 0.15 0.4 (scaled to selfProb/2).
			self := selfProb / 2
			rest := (1 - self) / float64(n-1)
			for j := 0; j < n; j++ {
				if i == j {
					a[i][j] = self
				} else {
					a[i][j] = rest
				}
			}
			continue
		}
		for j := 0; j < n; j++ {
			if i == j {
				a[i][j] = selfProb
			} else {
				a[i][j] = off
			}
		}
	}
	return a
}

// Annotator infers stop categories against a POI set. Construction
// pre-computes the discretized per-cell category influences; afterwards the
// annotator is safe for concurrent use (Cursors are per-goroutine). The HMM
// candidate generation — which POIs influence a stop — runs entirely
// through the spatial.Index captured from the set at construction.
type Annotator struct {
	pois  *poi.Set
	idx   spatial.Index
	cfg   Config
	model *hmm.Model
	// cellInfluence[cellID][cat] is the pre-computed discretized
	// Pr(grid_jk | Ci) of §4.3 (up to normalisation).
	cellInfluence [][]float64
}

// NewAnnotator builds the annotator, the HMM λ = (π, A) and the discretized
// influence grid.
func NewAnnotator(set *poi.Set, cfg Config) (*Annotator, error) {
	if set == nil {
		return nil, errors.New("point: nil POI set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pi := set.CategoryShares()
	trans := cfg.Transition
	if trans == nil {
		trans = PaperTransitionMatrix(cfg.SelfTransition)
	}
	model, err := hmm.New(pi, trans)
	if err != nil {
		return nil, fmt.Errorf("point: building HMM: %w", err)
	}
	a := &Annotator{pois: set, idx: set.Index(), cfg: cfg, model: model}
	a.precomputeInfluence()
	return a, nil
}

// Cursor is the per-object locality cache of the point layer: the last POI
// candidate query around a stop centre. Not safe for concurrent use; keep
// one per moving object.
type Cursor struct {
	near *spatial.Cursor
}

// NewCursor returns an empty locality cursor for the annotator. The cached
// superset stays unsorted — POI candidate sets shrink a lot between the
// inflated cache query and the filtered answer, so sorting the small answer
// per call (as the uncached path does anyway) is cheaper than sorting the
// superset per miss.
func (a *Annotator) NewCursor() *Cursor {
	return &Cursor{near: spatial.NewCursor(a.idx)}
}

// Stats returns the candidate-cache hit/miss counters.
func (c *Cursor) Stats() (hits, misses uint64) { return c.near.Stats() }

// influenceRadius is the candidate radius of the HMM observation model: the
// neighbourhood restriction of Figs. 7-8 expressed in metres.
func (a *Annotator) influenceRadius() float64 {
	return float64(a.cfg.NeighborhoodCells) * a.pois.Grid().CellSize
}

// Candidates returns the POIs within the influence neighbourhood of c,
// ordered by id — the candidate set of the HMM observation model (Lemma 1),
// answered through the spatial.Index interface and, when cur is non-nil,
// its locality cache. The id ordering keeps the floating-point influence
// sums independent of the index's traversal order.
func (a *Annotator) Candidates(c geo.Point, cur *Cursor) []*poi.POI {
	var items []spatial.Item
	if cur != nil {
		items = cur.near.WithinDistance(c, a.influenceRadius())
	} else {
		items = spatial.WithinDistance(a.idx, c, a.influenceRadius())
	}
	out := make([]*poi.POI, 0, len(items))
	for _, it := range items {
		out = append(out, it.Value.(*poi.POI))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Model exposes the underlying HMM (read-only), mainly for tests and
// diagnostics.
func (a *Annotator) Model() *hmm.Model { return a.model }

func (a *Annotator) sigmaFor(c poi.Category) float64 {
	if a.cfg.CategorySigma != nil && a.cfg.CategorySigma[int(c)] > 0 {
		return a.cfg.CategorySigma[int(c)]
	}
	return a.cfg.Sigma
}

// precomputeInfluence fills cellInfluence with, for every grid cell, the sum
// of the Gaussian densities of the POIs in the cell's neighbourhood,
// evaluated at the cell centre and grouped per category (the discretization
// of Pr(center|Ci) described in §4.3 and illustrated by Figs. 7–8).
func (a *Annotator) precomputeInfluence() {
	g := a.pois.Grid()
	n := g.NumCells()
	a.cellInfluence = make([][]float64, n)
	// Construction-time locality cursor: consecutive cell centres are one
	// cell apart, well within the cache slack of the influence radius.
	cur := a.NewCursor()
	for id := 0; id < n; id++ {
		a.cellInfluence[id] = make([]float64, poi.NumCategories)
		center := g.CellRectByID(id).Center()
		for _, p := range a.Candidates(center, cur) {
			sigma := a.sigmaFor(p.Category)
			d := p.Position.DistanceTo(center)
			a.cellInfluence[id][int(p.Category)] += gaussian2D(d, sigma)
		}
	}
}

// gaussian2D evaluates an isotropic two-dimensional Gaussian density with
// standard deviation sigma at distance d from its mean.
func gaussian2D(d, sigma float64) float64 {
	return math.Exp(-d*d/(2*sigma*sigma)) / (2 * math.Pi * sigma * sigma)
}

// Emissions returns, for each stop location, the per-category observation
// likelihood Pr(stop | Ci) (Lemma 1, up to a constant factor). A stop whose
// cell has no nearby POIs falls back to the exact (non-discretized) Gaussian
// sum, and finally to the global category frequencies so decoding never
// degenerates.
func (a *Annotator) Emissions(stopCenters []geo.Point) [][]float64 {
	return a.EmissionsCursor(stopCenters, nil)
}

// EmissionsCursor is Emissions with a per-object locality cursor; cur may
// be nil. Cached and uncached results are identical.
func (a *Annotator) EmissionsCursor(stopCenters []geo.Point, cur *Cursor) [][]float64 {
	out := make([][]float64, len(stopCenters))
	g := a.pois.Grid()
	shares := a.pois.CategoryShares()
	for i, c := range stopCenters {
		var row []float64
		if id := g.CellAt(c); id >= 0 {
			row = append([]float64(nil), a.cellInfluence[id]...)
		}
		if sum(row) == 0 {
			// Exact computation around the stop centre.
			row = make([]float64, poi.NumCategories)
			for _, p := range a.Candidates(c, cur) {
				row[int(p.Category)] += gaussian2D(p.Position.DistanceTo(c), a.sigmaFor(p.Category))
			}
		}
		if sum(row) == 0 {
			row = append([]float64(nil), shares...)
		}
		out[i] = row
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ActivityFor maps a POI category to the activity annotation attached to the
// stop (the "work"/"shopping" style values of §1.1).
func ActivityFor(c poi.Category) string {
	switch c {
	case poi.Services:
		return "errand"
	case poi.Feedings:
		return "eating"
	case poi.ItemSale:
		return "shopping"
	case poi.PersonLife:
		return "leisure"
	default:
		return "unknown"
	}
}

// StopAnnotation describes the inference result for one stop.
type StopAnnotation struct {
	Category   poi.Category
	Confidence float64
	// NearestPOI is the closest POI of the decoded category (nil when the
	// category has no POI near the stop).
	NearestPOI *poi.POI
}

// AnnotateStops runs Algorithm 3 over an ordered sequence of stop episodes:
// it builds the emission matrix from the POI influences, decodes the most
// likely category sequence with Viterbi and returns both the structured
// tuples of Tpoint and the per-stop annotations.
func (a *Annotator) AnnotateStops(stops []*episode.Episode) ([]*core.EpisodeTuple, []StopAnnotation, error) {
	return a.AnnotateStopsCursor(stops, nil)
}

// AnnotateStopsCursor is AnnotateStops with a per-object locality cursor;
// cur may be nil. Cached and uncached results are identical.
func (a *Annotator) AnnotateStopsCursor(stops []*episode.Episode, cur *Cursor) ([]*core.EpisodeTuple, []StopAnnotation, error) {
	if len(stops) == 0 {
		return nil, nil, errors.New("point: no stop episodes")
	}
	for i, s := range stops {
		if s == nil {
			return nil, nil, fmt.Errorf("point: stop %d is nil", i)
		}
		if s.Kind != episode.Stop {
			return nil, nil, fmt.Errorf("point: episode %d is not a stop", i)
		}
	}
	centers := make([]geo.Point, len(stops))
	for i, s := range stops {
		centers[i] = s.Center
	}
	emissions := a.EmissionsCursor(centers, cur)
	res, err := a.model.Viterbi(emissions)
	if err != nil {
		return nil, nil, fmt.Errorf("point: %w", err)
	}
	annotations := make([]StopAnnotation, len(stops))
	tuples := make([]*core.EpisodeTuple, len(stops))
	for i, stateIdx := range res.States {
		cat := poi.Category(stateIdx)
		conf := confidence(emissions[i], stateIdx)
		var nearest *poi.POI
		var bestD float64 = math.Inf(1)
		for _, p := range a.Candidates(centers[i], cur) {
			if p.Category != cat {
				continue
			}
			if d := p.Position.DistanceTo(centers[i]); d < bestD {
				bestD = d
				nearest = p
			}
		}
		annotations[i] = StopAnnotation{Category: cat, Confidence: conf, NearestPOI: nearest}
		place := &core.Place{
			ID:       fmt.Sprintf("stop-%s-%d", stops[i].TrajectoryID, i),
			Kind:     core.PointPlace,
			Category: cat.String(),
			Extent:   stops[i].Bounds,
		}
		if nearest != nil {
			place.ID = fmt.Sprintf("poi-%d", nearest.ID)
			place.Name = nearest.Name
		}
		tuple := &core.EpisodeTuple{
			Kind:    episode.Stop,
			Place:   place,
			TimeIn:  stops[i].Start,
			TimeOut: stops[i].End,
			Episode: stops[i],
		}
		anns := append(make([]core.Annotation, 0, 3),
			core.Annotation{Key: core.AnnPOICategory, Value: cat.String(), Confidence: conf, Source: "point"},
			core.Annotation{Key: core.AnnActivity, Value: ActivityFor(cat), Confidence: conf, Source: "point"})
		if nearest != nil {
			anns = append(anns, core.Annotation{Key: core.AnnPOIName, Value: nearest.Name, Confidence: conf, Source: "point"})
		}
		tuple.Annotations = core.AnnotationSetOf(anns)
		tuples[i] = tuple
	}
	return tuples, annotations, nil
}

// confidence converts the emission row into a normalised share for the
// decoded state, a simple per-stop confidence measure.
func confidence(emissionRow []float64, state int) float64 {
	total := sum(emissionRow)
	if total <= 0 {
		return 1.0 / float64(len(emissionRow))
	}
	return emissionRow[state] / total
}

// AnnotateStopsNearest is the one-to-one baseline of prior work ([1][28]):
// each stop is assigned the category of its single nearest POI, ignoring the
// stop sequence and the local POI density. Used by ablation A2.
func (a *Annotator) AnnotateStopsNearest(stops []*episode.Episode) ([]StopAnnotation, error) {
	if len(stops) == 0 {
		return nil, errors.New("point: no stop episodes")
	}
	out := make([]StopAnnotation, len(stops))
	for i, s := range stops {
		p, _, ok := a.pois.Nearest(s.Center)
		if !ok {
			out[i] = StopAnnotation{Category: poi.Unknown, Confidence: 0}
			continue
		}
		out[i] = StopAnnotation{Category: p.Category, Confidence: 0.5, NearestPOI: p}
	}
	return out, nil
}
