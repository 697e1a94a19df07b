package query

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"semitri/internal/core"
	"semitri/internal/store"
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

// key extracts the group key of the tuple tp stored at ref under the
// aggregate's dimension; ok is false when the row carries no value for it
// (no place, missing annotation key) and must be dropped.
func (a *Aggregate) key(ref *store.TupleRef, tp *core.EpisodeTuple) (string, bool) {
	switch a.By {
	case DimObject:
		return ref.ObjectID, true
	case DimTrajectory:
		return ref.TrajectoryID, true
	case DimPlace:
		id := tp.PlaceID()
		return id, id != ""
	case DimKind:
		return tp.Kind.String(), true
	case DimAnnotation:
		v := tp.Annotations.Value(a.AnnKey)
		return v, v != ""
	}
	return "", false
}

// accum is one group's accumulator; objects is filled in at ranking, from
// the fold's pairs.
type accum struct {
	count   int
	objects int
	dur     time.Duration
}

// groups is one worker's partial fold: each group key's accumulator and,
// when the metric counts distinct objects, the (group key, object) pairs
// seen. It is the one fold behind AggregateMatches, AggregatePairs and the
// grouped executions, and it allocates once per group, plus the growth of
// its two maps.
type groups struct {
	acc   map[string]*accum
	pairs map[keyObject]struct{}
}

// keyObject is one object seen in one group.
type keyObject struct{ key, object string }

// newGroups returns an empty fold for a.
func newGroups(a *Aggregate) groups {
	g := groups{acc: map[string]*accum{}}
	if a.metric() == MetricDistinctObjects {
		g.pairs = map[keyObject]struct{}{}
	}
	return g
}

// add folds one row into the group key: its count, its duration
// contribution and its object.
func (g groups) add(key, obj string, dur time.Duration) {
	acc := g.acc[key]
	if acc == nil {
		acc = &accum{}
		g.acc[key] = acc
	}
	acc.count++
	acc.dur += dur
	if g.pairs != nil {
		g.pairs[keyObject{key, obj}] = struct{}{}
	}
}

// row folds the tuple tp stored at ref under a; a row without a group key
// is dropped.
func (g groups) row(a *Aggregate, ref *store.TupleRef, tp *core.EpisodeTuple) {
	if key, ok := a.key(ref, tp); ok {
		g.add(key, ref.ObjectID, tp.Duration())
	}
}

// merge folds another worker's partial fold into g by integer sums and set
// unions — exact and order-independent, so the ranked output is
// byte-identical at any worker count.
func (g groups) merge(o groups) {
	for key, p := range o.acc {
		if acc := g.acc[key]; acc != nil {
			acc.count += p.count
			acc.dur += p.dur
		} else {
			g.acc[key] = p
		}
	}
	for pair := range o.pairs {
		g.pairs[pair] = struct{}{}
	}
}

// rank turns a merged fold into the aggregate's result: each group's metric
// value, ranked descending with ties broken by key, cut to the top K. With
// K below the group count it keeps the K best in a heap as it goes and
// sorts those alone, never the whole fold.
func (a *Aggregate) rank(g groups) []Group {
	for pair := range g.pairs {
		g.acc[pair.key].objects++
	}
	k := len(g.acc)
	if a.K > 0 {
		k = min(k, a.K)
	}
	top := make([]Group, 0, k)
	for key, acc := range g.acc {
		gr := Group{Key: key, Count: acc.count}
		switch a.metric() {
		case MetricCount:
			gr.Value = float64(acc.count)
		case MetricDistinctObjects:
			gr.Value = float64(acc.objects)
		case MetricDuration:
			gr.Value = acc.dur.Seconds()
		}
		switch {
		case len(top) < k:
			top = append(top, gr)
			worstUp(top, len(top)-1)
		case rankCompare(gr, top[0]) < 0:
			top[0] = gr
			worstDown(top, 0)
		}
	}
	slices.SortFunc(top, rankCompare)
	return top
}

// rankCompare orders groups as a ranking lists them: higher value first,
// ties broken by key.
func rankCompare(x, y Group) int {
	if x.Value != y.Value {
		return cmp.Compare(y.Value, x.Value)
	}
	return strings.Compare(x.Key, y.Key)
}

// worstUp and worstDown restore, after the element at i changed, the heap
// order of h that keeps its worst-ranked group at h[0]: no group ranks
// after its parent.
func worstUp(h []Group, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if rankCompare(h[i], h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func worstDown(h []Group, i int) {
	for {
		worst := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(h) && rankCompare(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// AggregateMatches groups single-table query results. MetricDistinctObjects
// counts distinct owning objects per group (e.g. top-K POIs by distinct
// visitors); MetricDuration sums the episodes' durations. The fold runs on
// the engine's workers (see foldRows). ExecuteAggregate computes the same
// groups without collecting the matches.
func (e *Engine) AggregateMatches(a Aggregate, ms []Match) ([]Group, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return e.foldRows(&a, len(ms), func(g groups, i int) {
		g.row(&a, &ms[i].Ref, &ms[i].Tuple)
	}), nil
}

// AggregatePairs groups join results. The group key comes from the left
// side of each pair; MetricDistinctObjects counts distinct right-side
// objects and MetricDuration sums the pairwise interval overlap.
func (e *Engine) AggregatePairs(a Aggregate, ps []JoinMatch) ([]Group, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return e.foldRows(&a, len(ps), func(g groups, i int) {
		p := &ps[i]
		if key, ok := a.key(&p.Left.Ref, &p.Left.Tuple); ok {
			g.add(key, p.Right.Ref.ObjectID, overlap(&p.Left.Tuple, &p.Right.Tuple))
		}
	}), nil
}

// ExecuteAggregate runs a single-table query and groups its rows by a. A
// query without a limit folds each admitted row into per-worker
// accumulators as its access path produces it, on every path: no Match is
// built and nothing is sorted, and a cold scan decodes only the fields the
// query's tuple check and the group key read. A limit caps the rows before
// the fold, so a limited query collects its canonical prefix and folds
// that. Either way the groups are AggregateMatches(a, Execute(q))'s, and
// the plan is Explain(q)'s.
func (e *Engine) ExecuteAggregate(q Query, a Aggregate) ([]Group, Plan, error) {
	return e.aggregate(q, a, nil)
}

// ExecuteAggregateTraced is ExecuteAggregate plus a full execution trace;
// the fold's merge and ranking are timed as one extra "aggregate" stage.
func (e *Engine) ExecuteAggregateTraced(q Query, a Aggregate) ([]Group, Plan, *Trace, error) {
	tr := &Trace{}
	gs, p, err := e.aggregate(q, a, tr)
	if err != nil {
		return nil, Plan{}, nil, err
	}
	return gs, p, tr, nil
}

// aggregate is the one body behind ExecuteAggregate and its traced twin.
func (e *Engine) aggregate(q Query, a Aggregate, tr *Trace) ([]Group, Plan, error) {
	if err := a.Validate(); err != nil {
		return nil, Plan{}, err
	}
	var s sink
	if q.Limit == 0 {
		s.agg, s.groups = &a, newGroups(&a)
	}
	p, err := e.executeInto(q, &s, tr)
	if err != nil {
		return nil, Plan{}, err
	}
	t0 := time.Now()
	var gs []Group
	if s.agg != nil {
		gs = a.rank(s.groups)
	} else {
		gs, _ = e.AggregateMatches(a, s.out)
	}
	if tr != nil {
		ns := time.Since(t0).Nanoseconds()
		tr.Stages = append(tr.Stages, TraceStage{Name: "aggregate", Ns: ns, Rows: len(gs)})
		tr.TotalNs += ns
	}
	return gs, p, nil
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

// foldRows folds n collected rows, row(g, i) folding row i into g. The rows
// split into one contiguous range per worker, each folded into that
// worker's private partial fold, and the partials merge (groups.merge).
// With one worker there is one range, one map and nothing to merge.
func (e *Engine) foldRows(a *Aggregate, n int, row func(g groups, i int)) []Group {
	workers := e.workersFor(n, 0)
	parts := make([]groups, workers)
	for w := range parts {
		parts[w] = newGroups(a)
	}
	fanOut(workers, workers, func(w, r int) bool {
		for i := r * n / workers; i < (r+1)*n/workers; i++ {
			row(parts[w], i)
		}
		return true
	})
	for _, part := range parts[1:] {
		parts[0].merge(part)
	}
	return a.rank(parts[0])
}
