package query

import (
	"fmt"
	"sort"
	"strings"
)

// Path names one access path the planner can execute a query through.
type Path string

const (
	// PathTrajectory resolves the named trajectory's tuples directly from
	// the store — available when Query.TrajectoryID is set.
	PathTrajectory Path = "trajectory"
	// PathAnnotation walks the inverted annotation index — available when
	// Query.AnnKey and AnnValue are set (an empty AnnValue asks for tuples
	// *without* the key, which no inverted index can enumerate).
	PathAnnotation Path = "annotation"
	// PathObjectTime walks the object's time-ordered episode postings —
	// available when Query.ObjectID is set; a time window narrows it by
	// binary search.
	PathObjectTime Path = "object-time"
	// PathSpatial walks the episode-geometry forests — available when
	// Query.Window or Query.Near is set.
	PathSpatial Path = "spatial"
	// PathScan is the indexless fallback: a full pass over the stored
	// tuples of the interpretation. Always available; chosen only when no
	// indexed path is, or when the store is small enough that estimates
	// round down to it.
	PathScan Path = "full-scan"
)

// Plan records the planner's decision for one query: the access path it
// picked and the candidate-count estimate of every path the query's
// predicates made available (rendered by String). The cheapest estimate wins;
// ties break in declaration order of the paths above (most precise first).
// A Plan is a plain value: planning allocates nothing.
type Plan struct {
	Path Path
	est  estimates
}

// estimate returns the candidate-count estimate of the chosen path.
func (p Plan) estimate() int { return p.est.n[pathRank(p.Path)] }

// String renders the plan compactly: every available path in rank order with
// its estimate, the chosen one starred, e.g.
// "*annotation≈7 spatial≈145 full-scan≈611".
func (p Plan) String() string {
	var b strings.Builder
	for r, path := range rankedPaths {
		if !p.est.avail[r] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if path == p.Path {
			b.WriteByte('*')
		}
		fmt.Fprintf(&b, "%s≈%d", path, p.est.n[r])
	}
	return b.String()
}

// pathRank is the tie-break order of the access paths.
func pathRank(p Path) int {
	switch p {
	case PathTrajectory:
		return 0
	case PathAnnotation:
		return 1
	case PathObjectTime:
		return 2
	case PathSpatial:
		return 3
	}
	return 4
}

// numPaths is the number of access paths (the size of rank-indexed tables).
const numPaths = 5

// rankedPaths inverts pathRank: the path at each rank.
var rankedPaths = [numPaths]Path{PathTrajectory, PathAnnotation, PathObjectTime, PathSpatial, PathScan}

// Explain plans the query without executing it.
func (e *Engine) Explain(q Query) (Plan, error) {
	f, err := compile(q)
	if err != nil {
		return Plan{}, err
	}
	return e.plan(&f), nil
}

// estimates holds per-path candidate-count estimates in fixed rank-indexed
// arrays, so planning never allocates.
type estimates struct {
	n     [numPaths]int
	avail [numPaths]bool
}

// estimatePaths fills est with the candidate-count estimate of every path
// f's clauses make available. Estimates read per-shard index cardinalities
// (posting list lengths, binary-searched time prefixes, the forests' leaf
// counts) — never a data scan.
func (e *Engine) estimatePaths(f *form, est *estimates) {
	*est = estimates{}
	if f.traj != "" {
		est.set(PathTrajectory, e.st.TupleCount(f.traj, f.interp))
	}
	if a, ok := f.indexedAnn(); ok {
		k := annKey{interp: f.interp, key: a.key, value: a.value}
		sh := e.annShardFor(k)
		sh.mu.RLock()
		est.set(PathAnnotation, len(sh.ann[k]))
		sh.mu.RUnlock()
	}
	if f.object != "" {
		sh := e.objShardFor(f.object)
		sh.mu.RLock()
		posted := sh.objects[f.object]
		hi := sort.Search(len(posted), func(i int) bool { return f.hi.before(posted[i].timeIn()) })
		// TimeIn is sorted; postings whose TimeIn is already at or past lo
		// certainly meet that half-bound. Earlier ones may still meet it via
		// TimeOut, so this bound only sharpens the estimate, not the gather
		// (which filters on TimeOut exactly).
		lo := sort.Search(hi, func(i int) bool { return !posted[i].timeIn().before(f.lo) })
		lo /= 2 // split the difference on the straddling prefix
		sh.mu.RUnlock()
		est.set(PathObjectTime, hi-lo)
	}
	if f.spatial() {
		n := 0
		e.spatial.mu.RLock()
		for _, part := range e.spatial.parts[f.interp] {
			if f.kinds&kindBit(part.kind) != 0 {
				n += part.rects.EstimateWithin(f.gather)
			}
		}
		e.spatial.mu.RUnlock()
		est.set(PathSpatial, n)
	}
	est.set(PathScan, int(e.total.Load()))
}

func (est *estimates) set(p Path, n int) {
	r := pathRank(p)
	est.n[r] = n
	est.avail[r] = true
}

// best picks the cheapest available path; ties break toward the more
// precise path (lower rank).
func (est *estimates) best() Path {
	best := pathRank(PathScan)
	for _, path := range [...]Path{PathSpatial, PathObjectTime, PathAnnotation, PathTrajectory} {
		r := pathRank(path)
		if est.avail[r] && est.n[r] <= est.n[best] {
			best = r
		}
	}
	return rankedPaths[best]
}

// plan ranks the available access paths by estimated candidate count and
// picks the cheapest.
func (e *Engine) plan(f *form) (p Plan) {
	e.estimatePaths(f, &p.est)
	p.Path = p.est.best()
	return p
}
