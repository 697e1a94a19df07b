package query

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"semitri/internal/core"
)

// Dim names a grouping dimension of an Aggregate.
type Dim string

const (
	// DimObject groups by moving object id.
	DimObject Dim = "object"
	// DimTrajectory groups by trajectory id.
	DimTrajectory Dim = "trajectory"
	// DimPlace groups by the linked semantic place id (POI, road segment,
	// land-use cell); rows without a place are dropped.
	DimPlace Dim = "place"
	// DimKind groups by episode kind (stop/move).
	DimKind Dim = "kind"
	// DimAnnotation groups by the value of Aggregate.AnnKey; rows without
	// the key are dropped.
	DimAnnotation Dim = "ann"
)

// Metric names the value an Aggregate computes per group. Groups are ranked
// by it (descending, ties broken by key) before TopK truncation.
type Metric string

const (
	// MetricCount counts rows (or pairs) per group. The default.
	MetricCount Metric = "count"
	// MetricDistinctObjects counts distinct moving objects per group — for
	// join results, distinct objects on the *right* side of the pair
	// ("how many distinct others co-located here").
	MetricDistinctObjects Metric = "distinct-objects"
	// MetricDuration sums episode durations per group in seconds — for join
	// results, the pairwise interval overlap (clamped at zero), i.e. the
	// total co-location time.
	MetricDuration Metric = "duration"
)

// Aggregate groups query or join results along one dimension, computes a
// metric per group and keeps the top K groups by that metric.
type Aggregate struct {
	// By is the grouping dimension. For join results the group key is
	// extracted from the left side of each pair.
	By Dim
	// AnnKey is the annotation key grouped by when By is DimAnnotation.
	AnnKey string
	// Metric is the per-group value; empty means MetricCount.
	Metric Metric
	// K caps the number of groups returned (after the deterministic
	// ranking); 0 means all.
	K int
}

// Validate checks the structural invariants of the aggregate.
func (a Aggregate) Validate() error {
	switch a.By {
	case DimObject, DimTrajectory, DimPlace, DimKind:
		if a.AnnKey != "" {
			return fmt.Errorf("query: aggregate by %s does not take an annotation key", a.By)
		}
	case DimAnnotation:
		if a.AnnKey == "" {
			return errors.New("query: aggregate by annotation needs AnnKey")
		}
	default:
		return fmt.Errorf("query: unknown aggregate dimension %q", a.By)
	}
	switch a.Metric {
	case "", MetricCount, MetricDistinctObjects, MetricDuration:
	default:
		return fmt.Errorf("query: unknown aggregate metric %q", a.Metric)
	}
	if a.K < 0 {
		return errors.New("query: negative top-K")
	}
	return nil
}

// metric returns the metric with the default applied.
func (a *Aggregate) metric() Metric {
	if a.Metric == "" {
		return MetricCount
	}
	return a.Metric
}

// Group is one aggregation result: the group key, the raw row count and the
// ranked metric value (count, distinct objects, or seconds).
type Group struct {
	Key   string  `json:"key"`
	Count int     `json:"count"`
	Value float64 `json:"value"`
}

// key extracts the group key of a match under the aggregate's dimension;
// ok is false when the row carries no value for it (no place, missing
// annotation key) and must be dropped.
func (a *Aggregate) key(m *Match) (string, bool) {
	switch a.By {
	case DimObject:
		return m.Ref.ObjectID, true
	case DimTrajectory:
		return m.Ref.TrajectoryID, true
	case DimPlace:
		id := m.Tuple.PlaceID()
		return id, id != ""
	case DimKind:
		return m.Tuple.Kind.String(), true
	case DimAnnotation:
		v := m.Tuple.Annotations.Value(a.AnnKey)
		return v, v != ""
	}
	return "", false
}

// accum is one group's accumulator.
type accum struct {
	count   int
	objects map[string]bool
	dur     time.Duration
}

// AggregateMatches groups single-table query results. MetricDistinctObjects
// counts distinct owning objects per group (e.g. top-K POIs by distinct
// visitors); MetricDuration sums the episodes' durations. The fold runs on
// the engine's workers (see fold).
func (e *Engine) AggregateMatches(a Aggregate, ms []Match) ([]Group, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return e.fold(a, len(ms), func(i int) (string, bool, string, time.Duration) {
		m := &ms[i]
		key, ok := a.key(m)
		return key, ok, m.Ref.ObjectID, m.Tuple.Duration()
	})
}

// AggregatePairs groups join results. The group key comes from the left
// side of each pair; MetricDistinctObjects counts distinct right-side
// objects and MetricDuration sums the pairwise interval overlap.
func (e *Engine) AggregatePairs(a Aggregate, ps []JoinMatch) ([]Group, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return e.fold(a, len(ps), func(i int) (string, bool, string, time.Duration) {
		p := &ps[i]
		key, ok := a.key(&p.Left)
		return key, ok, p.Right.Ref.ObjectID, overlap(&p.Left.Tuple, &p.Right.Tuple)
	})
}

// overlap is the length of the intersection of two tuples' closed time
// intervals, zero when they are disjoint.
func overlap(l, r *core.EpisodeTuple) time.Duration {
	lo := l.TimeIn
	if r.TimeIn.After(lo) {
		lo = r.TimeIn
	}
	hi := l.TimeOut
	if r.TimeOut.Before(hi) {
		hi = r.TimeOut
	}
	if hi.Before(lo) {
		return 0
	}
	return hi.Sub(lo)
}

// fold runs the shared accumulation: n rows described by row(i) → (group
// key, keep, object id for distinct counting, duration contribution). The
// rows split into one contiguous range per worker, each folded into that
// worker's private partial map; the partials merge by integer sums and set
// unions — exact and order-independent — so the ranked output is
// byte-identical at any worker count. With one worker there is one range,
// one map and nothing to merge.
func (e *Engine) fold(a Aggregate, n int, row func(i int) (string, bool, string, time.Duration)) ([]Group, error) {
	workers := e.workersFor(n, 0)
	parts := make([]map[string]*accum, workers)
	for w := range parts {
		parts[w] = map[string]*accum{}
	}
	fanOut(workers, workers, func(w, r int) bool {
		foldRange(&a, r*n/workers, (r+1)*n/workers, row, parts[w])
		return true
	})
	groups := parts[0]
	for _, part := range parts[1:] {
		for key, p := range part {
			g := groups[key]
			if g == nil {
				groups[key] = p
				continue
			}
			g.count += p.count
			g.dur += p.dur
			for obj := range p.objects {
				if g.objects == nil {
					g.objects = map[string]bool{}
				}
				g.objects[obj] = true
			}
		}
	}
	out := make([]Group, 0, len(groups))
	for key, g := range groups {
		gr := Group{Key: key, Count: g.count}
		switch a.metric() {
		case MetricCount:
			gr.Value = float64(g.count)
		case MetricDistinctObjects:
			gr.Value = float64(len(g.objects))
		case MetricDuration:
			gr.Value = g.dur.Seconds()
		}
		out = append(out, gr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if a.K > 0 && len(out) > a.K {
		out = out[:a.K]
	}
	return out, nil
}

// foldRange folds rows [lo, hi) into groups.
func foldRange(a *Aggregate, lo, hi int, row func(i int) (string, bool, string, time.Duration), groups map[string]*accum) {
	distinct := a.metric() == MetricDistinctObjects
	for i := lo; i < hi; i++ {
		key, ok, obj, dur := row(i)
		if !ok {
			continue
		}
		g := groups[key]
		if g == nil {
			g = &accum{}
			groups[key] = g
		}
		g.count++
		g.dur += dur
		if distinct {
			if g.objects == nil {
				g.objects = map[string]bool{}
			}
			g.objects[obj] = true
		}
	}
}
