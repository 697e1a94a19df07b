package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"semitri/internal/obs"
)

// JoinOn is the pairing predicate of a Join: the conjunction of the enabled
// clauses below, evaluated over a (left, right) pair of episode tuples. At
// least one of the pairing clauses (time, distance, place, annotation) must
// be enabled; SameObject/DistinctObjects only constrain which objects may
// pair and cannot stand alone.
type JoinOn struct {
	// TimeOverlap requires the two episodes' closed time intervals to
	// overlap (touching counts).
	TimeOverlap bool
	// Within requires the two intervals to come within the given gap of
	// each other (overlap counts as a zero gap). It subsumes TimeOverlap.
	Within time.Duration
	// MaxDistance requires both episodes to have geometry and their centres
	// to lie within this many metres of each other. Zero disables.
	MaxDistance float64
	// SamePlace requires both tuples to link to the same, non-empty
	// semantic place.
	SamePlace bool
	// SameAnnKey requires both tuples to carry the same, non-empty value
	// for this annotation key (e.g. road_name: move episodes sharing a
	// road segment). Empty disables.
	SameAnnKey string
	// SameObject restricts pairs to episodes of the same moving object.
	SameObject bool
	// DistinctObjects restricts pairs to episodes of different moving
	// objects (the co-location shape).
	DistinctObjects bool
}

// Validate checks the structural invariants of the join predicate.
func (on JoinOn) Validate() error {
	if on.Within < 0 {
		return errors.New("query: join Within must not be negative")
	}
	if on.MaxDistance < 0 || !finite(on.MaxDistance) {
		return errors.New("query: join MaxDistance must be finite and not negative")
	}
	if !on.timeConstrained() && on.MaxDistance == 0 && !on.SamePlace && on.SameAnnKey == "" {
		return errors.New("query: join needs at least one pairing clause (time, distance, place or annotation)")
	}
	if on.SameObject && on.DistinctObjects {
		return errors.New("query: join cannot require both same and distinct objects")
	}
	return nil
}

// timeConstrained reports whether the predicate has a temporal clause.
func (on *JoinOn) timeConstrained() bool { return on.TimeOverlap || on.Within > 0 }

// Join is a typed two-sided join: the pairs of (Left, Right) results that
// satisfy On. Join sides must not set Limit (a per-side cap has no
// well-defined meaning under probe execution); Limit below caps the number
// of result pairs after the deterministic sort.
type Join struct {
	Left, Right Query
	On          JoinOn
	Limit       int
}

// JoinMatch is one join result pair. Left always comes from Join.Left and
// Right from Join.Right, regardless of which side the planner built.
type JoinMatch struct {
	Left  Match
	Right Match
}

// less is the canonical pair order: by the left match, then the right.
func (a *JoinMatch) less(b *JoinMatch) bool {
	if a.Left.less(&b.Left) {
		return true
	}
	if b.Left.less(&a.Left) {
		return false
	}
	return a.Right.less(&b.Right)
}

// Side names one side of a join.
type Side string

const (
	SideLeft  Side = "left"
	SideRight Side = "right"
)

// JoinPlan records the join planner's decision: the side it chose to
// materialise fully (the build side — always the one with the smaller
// estimated cardinality), that side's single-table plan, both sides'
// estimates, and, after execution, a histogram of the access paths the
// per-row probes of the other side went through.
type JoinPlan struct {
	// BuildSide is the side executed first and materialised in full.
	BuildSide Side
	// Build is the single-table plan of the build side.
	Build Plan
	// LeftEstimate/RightEstimate are the chosen-path candidate estimates
	// the build decision compared.
	LeftEstimate  int
	RightEstimate int
	// Workers is the probe worker-pool size the plan calls for, derived from
	// the engine's parallelism and the build-side estimate (1 = serial).
	// After execution it reports the pool size actually used.
	Workers int
	// ProbePaths counts, per access path, how many per-row probes of the
	// other side executed through it. Nil when the plan was not executed
	// (ExplainJoin).
	ProbePaths map[Path]int
	// WorkerProbes is the per-worker probe histogram of an executed parallel
	// join: WorkerProbes[w] counts the build rows worker w probed. Rows are
	// handed out dynamically, so the spread shows the pool's load balance.
	// Nil when the plan was not executed or execution was serial.
	WorkerProbes []int
}

// String renders the join plan compactly, e.g.
// "build=left(*annotation≈3 full-scan≈120) probe=right≈80 via object-time×3".
func (p JoinPlan) String() string {
	probe := SideRight
	probeEst := p.RightEstimate
	if p.BuildSide == SideRight {
		probe = SideLeft
		probeEst = p.LeftEstimate
	}
	var b strings.Builder
	fmt.Fprintf(&b, "build=%s(%s) probe=%s≈%d", p.BuildSide, p.Build, probe, probeEst)
	if p.Workers > 1 {
		fmt.Fprintf(&b, " workers=%d", p.Workers)
	}
	if len(p.WorkerProbes) > 0 {
		b.WriteString(" probes/worker=")
		for i, n := range p.WorkerProbes {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", n)
		}
	}
	if len(p.ProbePaths) > 0 {
		paths := make([]Path, 0, len(p.ProbePaths))
		for path := range p.ProbePaths {
			paths = append(paths, path)
		}
		sort.Slice(paths, func(i, j int) bool { return pathRank(paths[i]) < pathRank(paths[j]) })
		b.WriteString(" via")
		for _, path := range paths {
			fmt.Fprintf(&b, " %s×%d", path, p.ProbePaths[path])
		}
	}
	return b.String()
}

// validateJoin compiles both sides and checks every invariant of the join.
func validateJoin(j *Join) (left, right form, err error) {
	if left, err = compile(j.Left); err != nil {
		return left, right, fmt.Errorf("join left: %w", err)
	}
	if right, err = compile(j.Right); err != nil {
		return left, right, fmt.Errorf("join right: %w", err)
	}
	if left.limit != 0 || right.limit != 0 {
		return left, right, errors.New("query: join sides must not set Limit; use Join.Limit for the pair cap")
	}
	if j.Limit < 0 {
		return left, right, errors.New("query: negative join limit")
	}
	if err := j.On.Validate(); err != nil {
		return left, right, err
	}
	return left, right, nil
}

// planJoin decides the build side: both sides are planned as single-table
// queries and the one whose chosen path promises fewer candidates is
// materialised first, so the (more expensive) per-row probing happens from
// the smaller set into the larger one's indexes. Ties build left.
func (e *Engine) planJoin(left, right *form) JoinPlan {
	lp, rp := e.plan(left), e.plan(right)
	jp := JoinPlan{
		BuildSide:     SideLeft,
		Build:         lp,
		LeftEstimate:  lp.estimate(),
		RightEstimate: rp.estimate(),
	}
	if jp.RightEstimate < jp.LeftEstimate {
		jp.BuildSide = SideRight
		jp.Build = rp
	}
	// The probe pool is sized by the build estimate: one row = one probe task.
	jp.Workers = e.workersFor(jp.Build.estimate(), 0)
	return jp
}

// ExplainJoin plans the join without executing it.
func (e *Engine) ExplainJoin(j Join) (JoinPlan, error) {
	left, right, err := validateJoin(&j)
	if err != nil {
		return JoinPlan{}, err
	}
	return e.planJoin(&left, &right), nil
}

// ExecuteJoin plans and runs the join, returning pairs in the canonical
// (left, right) order. See ExecuteJoinExplained for the executed plan.
func (e *Engine) ExecuteJoin(j Join) ([]JoinMatch, error) {
	out, _, err := e.ExecuteJoinExplained(j)
	return out, err
}

// ExecuteJoinExplained runs the join and also returns the plan it executed,
// probe-path histogram (and, when parallel, per-worker probe counts)
// included.
//
// Execution materialises the build side through its own planned access path,
// then probes the other side once per build row with the conjunction of the
// probe side's form and what the join predicate pins for that row (the
// row's time interval widened by Within, a radius disc of MaxDistance
// around the row's centre, the row's object id or annotation value). The
// conjunction is exact, so a probed match satisfies the probe side's
// predicates and every pinned clause. Each probe plans independently, so it
// runs through the time, spatial or annotation index the conjunction makes
// available — a nested full scan only happens when the store is small
// enough that the planner prices a scan below every index.
//
// Build rows are independent probe tasks, so they fan out over the engine's
// workers (JoinPlan.Workers; serial under the engine's threshold). Rows are
// handed out dynamically for load balance, each worker appends pairs to its
// own buffer, and per-row spans re-assemble the pairs in build-row order
// before the canonical sort — the result is byte-identical to serial
// execution at any worker count.
func (e *Engine) ExecuteJoinExplained(j Join) ([]JoinMatch, JoinPlan, error) {
	return e.executeJoin(j, nil)
}

// executeJoin is the shared implementation behind ExecuteJoinExplained and
// ExecuteJoinTraced: tr, when non-nil, collects the build sub-trace, stage
// timings and the probe fan-out. Probe rows never see tr — the per-row hot
// path stays trace-free.
func (e *Engine) executeJoin(j Join, tr *Trace) ([]JoinMatch, JoinPlan, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	left, right, err := validateJoin(&j)
	if err != nil {
		return nil, JoinPlan{}, err
	}
	jp := e.planJoin(&left, &right)
	if tr != nil {
		tr.PlanNs = time.Since(t0).Nanoseconds()
	}

	build, probe := left, right
	if jp.BuildSide == SideRight {
		build, probe = right, left
	}
	var btr *Trace
	var t1 time.Time
	if tr != nil {
		btr = &Trace{Kind: "query", Plan: jp.Build.String(), Path: string(jp.Build.Path)}
		tr.Build = btr
		t1 = time.Now()
	}
	rows := e.executeBuf(&build, jp.Build.Path, nil, 0, btr)
	if btr != nil {
		btr.ExecNs = time.Since(t1).Nanoseconds()
		btr.Returned = len(rows)
		tr.stage("build", t1, len(rows))
	}
	workers := e.workersFor(len(rows), 0)
	jp.Workers = workers

	var t2 time.Time
	if tr != nil {
		t2 = time.Now()
	}
	pool := make([]probeWorker, workers)
	var spans []pairSpan // per-row pair spans, to re-assemble a parallel probe
	if workers > 1 {
		spans = make([]pairSpan, len(rows))
	}
	fanOut(workers, len(rows), func(w, ri int) bool {
		pw := &pool[w]
		pw.e = e
		lo, hi := pw.probeRow(&rows[ri], &probe, &j.On, jp.BuildSide)
		if spans != nil {
			spans[ri] = pairSpan{worker: w, lo: lo, hi: hi}
		}
		return true
	})
	var hist [numPaths]int
	probes, total := 0, 0
	for w := range pool {
		total += len(pool[w].pairs)
		probes += pool[w].probes
		obs.JoinWorkerProbes.Observe(float64(pool[w].probes))
		for r := 0; r < numPaths; r++ {
			hist[r] += pool[w].hist[r]
		}
	}
	// One worker probed the rows in order, so its buffer is already in
	// build-row order; a parallel probe re-assembles the rows' spans.
	out := pool[0].pairs
	if spans != nil {
		jp.WorkerProbes = make([]int, workers)
		for w := range pool {
			jp.WorkerProbes[w] = pool[w].probes
		}
		out = nil
		if total > 0 {
			out = make([]JoinMatch, 0, total)
			for _, sp := range spans {
				out = append(out, pool[sp.worker].pairs[sp.lo:sp.hi]...)
			}
		}
	}
	jp.ProbePaths = map[Path]int{}
	for r := 0; r < numPaths; r++ {
		if hist[r] > 0 {
			jp.ProbePaths[rankedPaths[r]] = hist[r]
		}
	}
	obs.JoinQueries.Inc()
	obs.JoinProbes.Add(int64(probes))
	tr.stage("probe", t2, len(out))
	var t3 time.Time
	if tr != nil {
		t3 = time.Now()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].less(&out[k]) })
	if j.Limit > 0 && len(out) > j.Limit {
		out = out[:j.Limit]
	}
	if tr != nil {
		tr.stage("sort-limit", t3, len(out))
		tr.Plan = jp.String()
		tr.Workers = jp.Workers
		tr.WorkerProbes = jp.WorkerProbes
		tr.ProbePaths = make(map[string]int, len(jp.ProbePaths))
		for path, n := range jp.ProbePaths {
			tr.ProbePaths[string(path)] = n
		}
		tr.Candidates = probes
		tr.Returned = len(out)
		tr.ExecNs = time.Since(t1).Nanoseconds()
		tr.TotalNs = time.Since(t0).Nanoseconds()
	}
	return out, jp, nil
}

// pairSpan locates one build row's pairs inside its worker's buffer.
type pairSpan struct {
	worker, lo, hi int
}

// probeWorker is one probe-pool worker's private state: the pair buffer its
// rows append into, a reusable match buffer for probe execution, the forms
// of the current row's pins and probe, and its share of the probe-path
// histogram. Nothing here is shared, so the probe loop runs lock-free and,
// at steady state, allocation-free.
type probeWorker struct {
	e      *Engine
	pairs  []JoinMatch
	mbuf   []Match
	pin    form
	pf     form
	hist   [numPaths]int
	probes int
}

// probeRow conjoins the probe side's form with what build row b pins, then
// plans and executes the probe, appending the verified pairs to w.pairs and
// returning their span. Probe execution is capped at one worker: the
// fan-out across rows already owns the pool, so per-probe parallelism would
// only oversubscribe it.
func (w *probeWorker) probeRow(b *Match, probe *form, on *JoinOn, buildSide Side) (lo, hi int) {
	lo = len(w.pairs)
	if !on.pinInto(&w.pin, b) {
		return lo, lo // the row has no geometry, value or place to share
	}
	w.pf.and(probe, &w.pin)
	if w.pf.kinds == 0 {
		return lo, lo // the pins contradict the probe side's clauses
	}
	path := w.e.plan(&w.pf).Path
	w.hist[pathRank(path)]++
	w.probes++
	w.mbuf = w.e.executeBuf(&w.pf, path, w.mbuf[:0], 1, nil)
	for i := range w.mbuf {
		c := &w.mbuf[i]
		// The probe's form holds every other clause of the join predicate.
		if on.DistinctObjects && c.Ref.ObjectID == b.Ref.ObjectID ||
			on.SamePlace && c.Tuple.PlaceID() != b.Tuple.PlaceID() {
			continue
		}
		pair := JoinMatch{Left: *b, Right: *c}
		if buildSide == SideRight {
			pair.Left, pair.Right = *c, *b
		}
		w.pairs = append(w.pairs, pair)
	}
	return lo, len(w.pairs)
}

// pinInto sets pin to the clauses the join predicate pins on a probe-side
// tuple for build row b, reusing pin's slices: b's time interval widened by
// Within (TimeOut ≥ b.TimeIn − Within and TimeIn ≤ b.TimeOut + Within, so
// that the two intervals come within Within), a disc of MaxDistance around
// b's centre, b's object, b's annotation value. Only DistinctObjects and
// SamePlace are left to the probe loop. It returns false when b pairs with
// nothing: a distance join needs its geometry, an annotation join a value,
// a place join a place.
func (on *JoinOn) pinInto(pin *form, b *Match) bool {
	if on.SamePlace && b.Tuple.PlaceID() == "" {
		return false
	}
	*pin = form{kinds: allKinds, lo: openLo, hi: openHi, anns: pin.anns[:0], discs: pin.discs[:0]}
	if on.timeConstrained() {
		pin.lo = stampOf(b.Tuple.TimeIn.Add(-on.Within))
		pin.hi = stampOf(b.Tuple.TimeOut.Add(on.Within))
	}
	if on.MaxDistance > 0 {
		ep := b.Tuple.Episode
		if ep == nil {
			return false
		}
		pin.discs = append(pin.discs, disc{ep.Center, on.MaxDistance})
	}
	if on.SameObject {
		pin.object = b.Ref.ObjectID
	}
	if k := on.SameAnnKey; k != "" {
		v := b.Tuple.Annotations.Value(k)
		if v == "" {
			return false
		}
		pin.anns = append(pin.anns, annEq{k, v})
	}
	return true
}
