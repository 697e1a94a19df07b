package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semitri/internal/core"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/store"
)

// tally counts the operations a run attempted and the ones that failed: Add,
// Close and recover errors, bad HTTP responses and failed correctness
// checks alike. The first few failures are kept for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errors    []string
}

// op counts one attempted operation and reports whether it succeeded.
func (t *tally) op(what string, err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.fail(what + ": " + err.Error())
	return false
}

// ops counts n operations that succeeded.
func (t *tally) ops(n int) { t.attempted.Add(int64(n)) }

// check counts one correctness check.
func (t *tally) check(what string, ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.fail("check failed: " + what)
	}
}

func (t *tally) fail(msg string) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errors) < 10 {
		t.errors = append(t.errors, msg)
	}
	t.mu.Unlock()
}

// digest summarises a store: record, trajectory, stop and move counts, and
// per interpretation the tuple count plus an order-independent hash of every
// tuple's position, kind, times and annotations. Two stores with the same
// digest hold the same semantic trajectories.
func digest(st *store.Store) string {
	stops, moves := st.EpisodeCounts()
	type interp struct {
		n    int
		hash uint64
	}
	per := map[string]*interp{}
	st.VisitStructuredTuples("", func(ref store.TupleRef, t core.EpisodeTuple) bool {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%s|%d|%d|%s", ref.TrajectoryID, ref.Index, t.Kind, t.TimeIn.UnixNano(), t.TimeOut.UnixNano(), t.PlaceID())
		for _, a := range t.Annotations.All() {
			fmt.Fprintf(h, "|%s=%s", a.Key, a.Value)
		}
		in := per[ref.Interpretation]
		if in == nil {
			in = &interp{}
			per[ref.Interpretation] = in
		}
		in.n++
		in.hash += h.Sum64()
		return true
	})
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d trajectories=%d stops=%d moves=%d", st.RecordCount(), st.TrajectoryCount(), stops, moves)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d:%x", name, per[name].n, per[name].hash)
	}
	return b.String()
}

// row identifies one result tuple; rows sort the way the engine sorts.
type row struct {
	object, trajectory, interpretation string
	index                              int
	tuple                              core.EpisodeTuple // brute-force rows only
}

func (r row) String() string {
	return fmt.Sprintf("%s/%s/%d", r.trajectory, r.interpretation, r.index)
}

func rowLess(a, b row) bool {
	if a.object != b.object {
		return a.object < b.object
	}
	if a.trajectory != b.trajectory {
		return a.trajectory < b.trajectory
	}
	return a.index < b.index
}

func matchRow(m query.Match) row {
	return row{object: m.Ref.ObjectID, trajectory: m.Ref.TrajectoryID, interpretation: m.Ref.Interpretation, index: m.Ref.Index}
}

func groupRows(gs []query.Group) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = fmt.Sprintf("%s:%d:%.3f", g.Key, g.Count, g.Value)
	}
	return out
}

// execute runs a statement in-process, the way a library user would, and
// returns how many rows it produced.
func execute(e *query.Engine, s stmt) (int, error) {
	if s.src == "" {
		ms, err := e.Execute(s.q)
		return len(ms), err
	}
	res, err := lang.Run(e, s.src)
	return len(res.Matches) + len(res.Pairs) + len(res.Groups), err
}

// answer runs a statement in-process and returns its rows in canonical form.
func answer(e *query.Engine, s stmt) ([]string, error) {
	var res lang.Result
	var err error
	if s.src == "" {
		res.Matches, err = e.Execute(s.q)
	} else {
		res, err = lang.Run(e, s.src)
	}
	if err != nil {
		return nil, err
	}
	out := groupRows(res.Groups)
	for _, m := range res.Matches {
		out = append(out, matchRow(m).String())
	}
	for _, p := range res.Pairs {
		out = append(out, matchRow(p.Left).String()+"~"+matchRow(p.Right).String())
	}
	return out, nil
}

// wireMatch and wireBody are the parts of the HTTP response bodies the
// benchmark reads.
type wireMatch struct {
	Trajectory     string `json:"trajectory"`
	Interpretation string `json:"interpretation"`
	Index          int    `json:"index"`
}

func (m wireMatch) String() string {
	return row{trajectory: m.Trajectory, interpretation: m.Interpretation, index: m.Index}.String()
}

type wireBody struct {
	Count   *int          `json:"count"`
	Matches []wireMatch   `json:"matches"`
	Groups  []query.Group `json:"groups"`
	Pairs   []struct {
		Left  wireMatch `json:"left"`
		Right wireMatch `json:"right"`
	} `json:"pairs"`
}

// wireAnswer decodes an HTTP response body into canonical rows.
func wireAnswer(body []byte) ([]string, error) {
	var wb wireBody
	if err := json.Unmarshal(body, &wb); err != nil {
		return nil, err
	}
	if wb.Count == nil {
		return nil, fmt.Errorf("response without a count")
	}
	out := groupRows(wb.Groups)
	for _, m := range wb.Matches {
		out = append(out, m.String())
	}
	for _, p := range wb.Pairs {
		out = append(out, p.Left.String()+"~"+p.Right.String())
	}
	return out, nil
}

// bruteMatches re-implements the query predicate independently of the
// engine: the trivially simple path the indexed one must agree with.
func bruteMatches(q *query.Query, ref store.TupleRef, t *core.EpisodeTuple) bool {
	switch {
	case q.ObjectID != "" && ref.ObjectID != q.ObjectID,
		q.TrajectoryID != "" && ref.TrajectoryID != q.TrajectoryID,
		q.Kind != nil && t.Kind != *q.Kind,
		!q.From.IsZero() && t.TimeOut.Before(q.From),
		!q.To.IsZero() && t.TimeIn.After(q.To),
		q.AnnKey != "" && t.Annotations.Value(q.AnnKey) != q.AnnValue,
		q.Window != nil && (t.Episode == nil || !t.Episode.Bounds.Intersects(*q.Window)),
		q.Near != nil && (t.Episode == nil || t.Episode.Center.DistanceTo(*q.Near) > q.Radius):
		return false
	}
	return true
}

// bruteFilter scans every stored tuple of the query's interpretation.
func bruteFilter(st *store.Store, q query.Query) []row {
	if q.Interpretation == "" {
		q.Interpretation = query.DefaultInterpretation
	}
	var out []row
	st.VisitStructuredTuples(q.Interpretation, func(ref store.TupleRef, t core.EpisodeTuple) bool {
		if bruteMatches(&q, ref, &t) {
			out = append(out, row{object: ref.ObjectID, trajectory: ref.TrajectoryID, interpretation: ref.Interpretation, index: ref.Index, tuple: t})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return rowLess(out[i], out[j]) })
	return out
}

func brutePair(on *query.JoinOn, l, r *row) bool {
	switch {
	case on.SameObject && l.object != r.object,
		on.DistinctObjects && l.object == r.object:
		return false
	}
	if on.TimeOverlap || on.Within > 0 {
		if l.tuple.TimeIn.After(r.tuple.TimeOut.Add(on.Within)) || r.tuple.TimeIn.After(l.tuple.TimeOut.Add(on.Within)) {
			return false
		}
	}
	if on.MaxDistance > 0 {
		le, re := l.tuple.Episode, r.tuple.Episode
		if le == nil || re == nil || le.Center.DistanceTo(re.Center) > on.MaxDistance {
			return false
		}
	}
	if on.SamePlace && (l.tuple.PlaceID() == "" || l.tuple.PlaceID() != r.tuple.PlaceID()) {
		return false
	}
	if k := on.SameAnnKey; k != "" {
		if v := l.tuple.Annotations.Value(k); v == "" || v != r.tuple.Annotations.Value(k) {
			return false
		}
	}
	return true
}

// bruteGroup folds rows into ranked groups. left supplies the group key;
// for join results right supplies the object and the overlap the metric
// counts, for single-table statements right is nil.
func bruteGroup(a *query.Aggregate, n int, left, right func(i int) *row) []string {
	type acc struct {
		count   int
		objects map[string]bool
		seconds float64
	}
	groups := map[string]*acc{}
	for i := 0; i < n; i++ {
		l := left(i)
		r := l
		if right != nil {
			r = right(i)
		}
		var key string
		switch a.By {
		case query.DimObject:
			key = l.object
		case query.DimTrajectory:
			key = l.trajectory
		case query.DimPlace:
			key = l.tuple.PlaceID()
		case query.DimKind:
			key = l.tuple.Kind.String()
		case query.DimAnnotation:
			key = l.tuple.Annotations.Value(a.AnnKey)
		}
		if key == "" {
			continue
		}
		g := groups[key]
		if g == nil {
			g = &acc{objects: map[string]bool{}}
			groups[key] = g
		}
		g.count++
		g.objects[r.object] = true
		if right == nil {
			g.seconds += l.tuple.Duration().Seconds()
		} else if from, to := maxTime(l.tuple.TimeIn, r.tuple.TimeIn), minTime(l.tuple.TimeOut, r.tuple.TimeOut); to.After(from) {
			g.seconds += to.Sub(from).Seconds()
		}
	}
	out := make([]query.Group, 0, len(groups))
	for key, g := range groups {
		v := float64(g.count)
		switch a.Metric {
		case query.MetricDistinctObjects:
			v = float64(len(g.objects))
		case query.MetricDuration:
			v = g.seconds
		}
		out = append(out, query.Group{Key: key, Count: g.count, Value: v})
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
	return groupRows(out)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// bruteAnswer answers a statement by filtering the whole store, pairing by
// nested loops and grouping in a map.
func bruteAnswer(st *store.Store, s stmt) []string {
	single, join, agg := s.q, (*query.Join)(nil), (*query.Aggregate)(nil)
	if s.parsed != nil {
		single, join, agg = s.parsed.Query, s.parsed.Join, s.parsed.Agg
	}
	if join == nil {
		rows := bruteFilter(st, single)
		if agg != nil {
			return bruteGroup(agg, len(rows), func(i int) *row { return &rows[i] }, nil)
		}
		if single.Limit > 0 && len(rows) > single.Limit {
			rows = rows[:single.Limit]
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		return out
	}
	left, right := bruteFilter(st, join.Left), bruteFilter(st, join.Right)
	var pairs [][2]*row
	for i := range left {
		for j := range right {
			if brutePair(&join.On, &left[i], &right[j]) {
				pairs = append(pairs, [2]*row{&left[i], &right[j]})
			}
		}
	}
	if agg != nil {
		return bruteGroup(agg, len(pairs), func(i int) *row { return pairs[i][0] }, func(i int) *row { return pairs[i][1] })
	}
	if join.Limit > 0 && len(pairs) > join.Limit {
		pairs = pairs[:join.Limit]
	}
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p[0].String() + "~" + p[1].String()
	}
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstBrute verifies on a quiescent store that the engine's answer
// to every statement equals the brute-force answer.
func checkAgainstBrute(t *tally, e *query.Engine, stmts []stmt) {
	for _, s := range stmts {
		got, err := answer(e, s)
		if !t.op("execute "+s.url, err) {
			continue
		}
		t.check("engine equals brute force on "+s.url, sameRows(got, bruteAnswer(e.Store(), s)))
	}
}
