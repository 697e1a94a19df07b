// Parallel execution: the one fan-out behind Execute, ExecuteJoin and the
// aggregates.
//
// Every parallel stage runs through fanOut, and its one-worker case is the
// serial execution: the same code, inline on the caller's goroutine. Every
// stage preserves one invariant: the result is byte-identical — order
// included — at any worker count. The techniques are:
//
//   - candidate resolution sorts the candidate keys — canonical rank above
//     position, integers only — into the canonical output order first,
//     splits them into contiguous chunks at rank boundaries (each
//     trajectory's batch resolves under one stripe lock), resolves chunks
//     concurrently and concatenates the per-chunk outputs in chunk order;
//   - full scans fan out over the store's own lock stripes and the cold
//     segments, reading each tuple once through one cut (store.Cut), and
//     the caller sorts the concatenation by the unique canonical key, so
//     the merge order cannot matter;
//   - join probes take runs of neighbouring build rows as items, with
//     per-worker pair buffers re-assembled in build-row order before the
//     final canonical sort;
//   - aggregation folds per-worker partial group maps whose merge is a sum
//     of integers and a union of sets — exact and order-independent — both
//     over collected rows and, for a grouped statement, inside the access
//     path itself (see sink).
//
// Below a cardinality threshold execution stays serial: for small results
// goroutine handoff costs more than the work.
package query

import (
	"runtime"
	"sync"
	"sync/atomic"

	"semitri/internal/core"
	"semitri/internal/obs"
	"semitri/internal/store"
)

// DefaultSerialThreshold is the candidate/row count below which execution
// stays serial. Sized so that point lookups and narrow probes never pay for
// goroutine handoff, while scans and joins large enough to matter fan out.
const DefaultSerialThreshold = 64

// Options configures an Engine's execution behaviour.
type Options struct {
	// Parallelism caps the worker pool of every parallel stage: scans,
	// candidate resolution, join probing and aggregation. Values below 1
	// mean runtime.GOMAXPROCS(0); 1 forces serial execution. No stage
	// starts more goroutines than GOMAXPROCS, whatever the cap.
	Parallelism int
}

// SetParallelism changes the engine's worker cap at runtime (values below 1
// mean runtime.GOMAXPROCS(0)). Safe to call concurrently with queries;
// in-flight executions keep the value they started with.
func (e *Engine) SetParallelism(n int) { e.par.Store(int32(n)) }

// Parallelism reports the effective worker cap.
func (e *Engine) Parallelism() int {
	if n := int(e.par.Load()); n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetSerialThreshold changes the serial-execution cutoff at runtime (values
// below 1 mean DefaultSerialThreshold). Exposed so tests and benchmarks can
// force the parallel paths onto small workloads.
func (e *Engine) SetSerialThreshold(n int) { e.serialThreshold.Store(int32(n)) }

// serialCutoff is the effective serial-execution cutoff.
func (e *Engine) serialCutoff() int {
	if n := int(e.serialThreshold.Load()); n >= 1 {
		return n
	}
	return DefaultSerialThreshold
}

// workersFor sizes the fan-out over n independent work items: 1 (serial)
// when parallelism is off or n is under the cutoff, otherwise the engine's
// cap — lowered to maxWorkers when that is at least 1 — and at most n.
func (e *Engine) workersFor(n, maxWorkers int) int {
	p := e.Parallelism()
	if maxWorkers >= 1 {
		p = min(p, maxWorkers)
	}
	if p <= 1 || n < e.serialCutoff() {
		return 1
	}
	return min(p, n)
}

// fanOut runs task(w, i) for every item i in [0, n) on up to `workers`
// workers, handing items out in ascending order from one atomic counter; w
// (0 ≤ w < workers) names the worker, so a task can keep per-worker state
// without locks. A task that returns false stops further hand-out (items
// already running finish). Worker 0 is the calling goroutine, so with one
// worker every item runs inline, in order, and no goroutine starts. It
// starts no more workers than GOMAXPROCS: more cannot run at once, and
// starting and waking them costs more than a short stage's items.
func fanOut(workers, n int, task func(w, i int) bool) {
	workers = min(workers, runtime.GOMAXPROCS(0))
	if workers <= 1 || n <= 1 {
		for i := 0; i < n && task(0, i); i++ {
		}
		return
	}
	var next atomic.Int64
	var stop atomic.Bool
	work := func(w int) {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !task(w, i) {
				stop.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// scratch is the pooled per-execution working set: the candidate key buffer
// and the table snapshot it was keyed by, the per-trajectory index batch and
// the resolution result buffers. One scratch serves one goroutine at a time;
// the pool keeps steady-state query execution allocation-free on the
// gather/resolve path.
type scratch struct {
	keys    []uint64
	view    stView
	indexes []int
	tuples  []core.EpisodeTuple
	ok      []bool
	cut     store.Cut
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// chunkBounds splits sorted candidate keys into at most `chunks` contiguous
// ranges, never splitting the keys of one rank — one structured trajectory:
// bounds[i]:bounds[i+1] is chunk i. Group integrity is what keeps parallel
// resolution identical to serial: each trajectory batch still resolves
// under a single stripe lock, and its row's clauses are checked once.
func chunkBounds(keys []uint64, chunks int) []int {
	target := (len(keys) + chunks - 1) / chunks
	bounds := make([]int, 1, chunks+1)
	for pos := 0; pos < len(keys); {
		end := pos + target
		if end >= len(keys) {
			bounds = append(bounds, len(keys))
			break
		}
		for end < len(keys) && keys[end]>>32 == keys[end-1]>>32 {
			end++
		}
		bounds = append(bounds, end)
		pos = end
	}
	return bounds
}

// resolveParallel fans sorted candidate keys of v out over the workers and
// puts the verified rows into s in the exact order serial resolution would
// produce: chunks are contiguous ranges of the sorted keys, each chunk's
// sink is internally ordered, and the sinks merge in chunk order. With a
// limit, each chunk resolves at most limit matches, and a worker that
// completes a chunk checks whether the complete prefix of chunks already
// covers the limit — if so it raises stop, and the chunks still resolving
// (whose output the merge would discard) are abandoned mid-flight.
func (e *Engine) resolveParallel(f *form, keys []uint64, v *stView, s *sink, workers int) {
	bounds := chunkBounds(keys, workers)
	n := len(bounds) - 1
	outs := make([]*sink, n)
	var (
		stop     atomic.Bool
		mu       sync.Mutex
		complete = make([]bool, n)
		filled   int // chunks 0..filled-1 are complete
		prefix   int // total rows in that complete prefix
	)
	fanOut(workers, n, func(_, ci int) bool {
		sc := getScratch()
		outs[ci] = s.sibling()
		e.resolveChunk(f, keys[bounds[ci]:bounds[ci+1]], v, outs[ci], sc, &stop)
		putScratch(sc)
		if f.limit <= 0 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		complete[ci] = true
		for filled < n && complete[filled] {
			prefix += outs[filled].rows
			filled++
		}
		if prefix >= f.limit {
			stop.Store(true)
			return false
		}
		return true
	})
	base := len(s.out)
	for _, chunk := range outs {
		if chunk == nil {
			break // abandoned after the limit was met
		}
		s.merge(chunk)
		if f.limit > 0 && len(s.out)-base >= f.limit {
			break
		}
	}
	s.truncate(base, f.limit)
}

// scan runs the full-scan path into s. It takes its cut of the store first
// and captures the segment list after it (pruneSegments), so it reads every
// tuple exactly once whatever a racing freeze does (store.Cut). The scan
// units are the cut's lock stripes (the heap tails) plus the cold segments
// whose summary survives pruning against the query; a segment
// decodes only the tuples whose kind and times pass f (admitsSpan, the
// tuple check's own clauses), and for a folding sink without a spatial
// clause only the fields f's tuple check and the group key read, from the
// runs' column frames (projection). Large scans visit the
// units concurrently, each worker into a sink of its own; worker 0 puts
// straight into s, so a serial scan is one pass into the caller's sink.
func (e *Engine) scan(f *form, s *sink, maxWorkers int, tr *Trace) {
	sc := getScratch()
	cut := &sc.cut
	defer func() {
		cut.Clear()
		putScratch(sc)
	}()
	e.st.TakeCut(f.interp, cut)
	segs := e.pruneSegments(f, tr)
	units := e.st.ShardCount() + len(segs)
	workers := min(e.workersFor(int(e.total.Load()), maxWorkers), units)
	sinks := make([]*sink, workers)
	sinks[0] = s
	// One visitor per worker, and one segment visitor over it, built once:
	// a visitor per unit would be heap-allocated closures per stripe and
	// segment, on every scan.
	visits := make([]func(store.TupleRef, *core.EpisodeTuple) bool, workers)
	for w := range visits {
		if w > 0 {
			sinks[w] = s.sibling()
		}
		sk := sinks[w]
		visits[w] = func(ref store.TupleRef, t *core.EpisodeTuple) bool {
			if f.admits(ref, t) {
				sk.add(&ref, t)
			}
			return true
		}
	}
	read := store.TupleRead{Keep: f.admitsSpan}
	if s.agg != nil && !f.spatial() {
		read.Project = projection(f, s.agg)
	}
	var segVisits []*store.SegmentVisitor
	if len(segs) > 0 {
		segVisits = make([]*store.SegmentVisitor, workers)
		for w := range segVisits {
			segVisits[w] = e.st.NewSegmentVisitor(cut, read, visits[w])
		}
	}
	fanOut(workers, units, func(w, u int) bool {
		if u < len(segs) {
			segVisits[w].Visit(segs[u])
		} else {
			cut.VisitShard(u-len(segs), visits[w])
		}
		return true
	})
	for _, o := range sinks[1:] {
		s.merge(o)
	}
}

// projection is what a grouped scan reads of a cold tuple beside its kind
// and times, from the run's column frame: the annotations f's clauses and
// a's group key read, and the place id when a groups by place. The metrics
// read only the ref's object and the times. A form with a spatial clause
// reads the episode, which no column frame holds, so its scan reads whole
// tuples instead.
func projection(f *form, a *Aggregate) *store.Projection {
	p := &store.Projection{Place: a.By == DimPlace}
	for _, x := range f.anns {
		p.AnnKeys = append(p.AnnKeys, x.key)
	}
	if a.By == DimAnnotation {
		p.AnnKeys = append(p.AnnKeys, a.AnnKey)
	}
	return p
}

// pruneSegments returns the indexes of the cold segments a scan of f must
// visit: a segment is skipped only when the segment check proves no tuple
// inside can match. Untiered stores return nil. Each prune bumps the
// per-rule metric, and tr (when non-nil) records every decision for EXPLAIN
// ANALYZE.
func (e *Engine) pruneSegments(f *form, tr *Trace) []int {
	sums := e.st.ColdSummaries(nil)
	if len(sums) == 0 {
		return nil
	}
	segs := make([]int, 0, len(sums))
	for i := range sums {
		ok, rule := f.summaryAdmits(&sums[i])
		if ok {
			segs = append(segs, i)
		} else {
			obs.SegmentPrunedBy(rule)
		}
		if tr != nil {
			tr.Segments = append(tr.Segments, SegmentDecision{Segment: i, Pruned: !ok, Rule: rule})
		}
	}
	return segs
}
