// Parallel execution: the one fan-out behind Execute, ExecuteJoin and the
// aggregates.
//
// Every parallel stage runs through fanOut, and its one-worker case is the
// serial execution: the same code, inline on the caller's goroutine. Every
// stage preserves one invariant: the result is byte-identical — order
// included — at any worker count. The techniques are:
//
//   - candidate resolution sorts refs into the canonical output order first,
//     splits them into contiguous chunks at trajectory-group boundaries
//     (duplicate postings stay adjacent inside one chunk, and each
//     trajectory's batch resolves under one stripe lock), resolves chunks
//     concurrently and concatenates the per-chunk outputs in chunk order;
//   - full scans fan out over the store's own lock stripes, and the caller
//     sorts the concatenation by the unique canonical key, so the merge
//     order cannot matter;
//   - join probes run one build row per item with per-worker pair buffers,
//     re-assembled in build-row order before the final canonical sort;
//   - aggregation folds per-worker partial group maps whose merge is a sum
//     of integers and a union of sets — exact and order-independent.
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
	// mean runtime.GOMAXPROCS(0); 1 forces serial execution.
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
// worker every item runs inline, in order, and no goroutine starts.
func fanOut(workers, n int, task func(w, i int) bool) {
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

// scratch is the pooled per-execution working set: the candidate ref buffer,
// the per-trajectory index batch and the resolution result buffers. One
// scratch serves one goroutine at a time; the pool keeps steady-state query
// execution allocation-free on the gather/resolve path.
type scratch struct {
	refs    []store.TupleRef
	indexes []int
	tuples  []core.EpisodeTuple
	ok      []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// chunkBounds splits sorted refs into at most `chunks` contiguous ranges,
// never splitting a (trajectory, interpretation) group: bounds[i]:bounds[i+1]
// is chunk i. Group integrity is what keeps parallel resolution identical to
// serial — duplicate postings (adjacent equals) dedup inside one chunk, and
// each trajectory batch still resolves under a single stripe lock.
func chunkBounds(refs []store.TupleRef, chunks int) []int {
	target := (len(refs) + chunks - 1) / chunks
	bounds := make([]int, 1, chunks+1)
	for pos := 0; pos < len(refs); {
		end := pos + target
		if end >= len(refs) {
			bounds = append(bounds, len(refs))
			break
		}
		for end < len(refs) &&
			refs[end].TrajectoryID == refs[end-1].TrajectoryID &&
			refs[end].Interpretation == refs[end-1].Interpretation {
			end++
		}
		bounds = append(bounds, end)
		pos = end
	}
	return bounds
}

// resolveParallel fans sorted candidate refs out over the workers and
// appends the verified matches to out in the exact order serial resolution
// would produce: chunks are contiguous ranges of the sorted refs, each
// chunk's output is internally ordered, and outputs concatenate in chunk
// order. With a limit, each chunk resolves at most limit matches, and a
// worker that completes a chunk checks whether the complete prefix of chunks
// already covers the limit — if so it raises stop, and the chunks still
// resolving (whose output the merge would discard) are abandoned mid-flight.
func (e *Engine) resolveParallel(f *form, refs []store.TupleRef, out []Match, workers int) []Match {
	bounds := chunkBounds(refs, workers)
	n := len(bounds) - 1
	outs := make([][]Match, n)
	var (
		stop     atomic.Bool
		mu       sync.Mutex
		complete = make([]bool, n)
		filled   int // chunks 0..filled-1 are complete
		prefix   int // total matches in that complete prefix
	)
	fanOut(workers, n, func(_, ci int) bool {
		sc := getScratch()
		outs[ci] = e.resolveChunk(f, refs[bounds[ci]:bounds[ci+1]], nil, sc, &stop)
		putScratch(sc)
		if f.limit <= 0 {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		complete[ci] = true
		for filled < n && complete[filled] {
			prefix += len(outs[filled])
			filled++
		}
		if prefix >= f.limit {
			stop.Store(true)
			return false
		}
		return true
	})
	for _, chunk := range outs {
		out = append(out, chunk...)
		if f.limit > 0 && len(out) >= f.limit {
			out = out[:f.limit]
			break
		}
	}
	return out
}

// scanMatches runs the full-scan path, appending raw (unsorted) matches to
// out. The scan units are the store's lock stripes (the heap tail) plus the
// cold segments whose footer summary survives pruning against the query
// (see pruneSegments); large scans visit the units concurrently, and the
// caller's canonical sort makes the interleaving unobservable. Worker 0
// appends straight into out, so a serial scan is one pass into the caller's
// buffer.
//
// The segment list is captured before any stripe is visited and the tier
// registers a freezing segment's runs before the store evicts the matching
// heap prefixes, so a freeze racing the scan can duplicate a tuple (same
// logical ref from both sides) but never hide one; the caller's post-sort
// dedup collapses the duplicates.
func (e *Engine) scanMatches(f *form, out []Match, maxWorkers int, tr *Trace) []Match {
	segs := e.pruneSegments(f, tr)
	units := e.st.ShardCount() + len(segs)
	workers := min(e.workersFor(int(e.total.Load()), maxWorkers), units)
	outs := make([][]Match, workers)
	outs[0] = out
	// One visitor per worker, built once: a visitor per unit would be a
	// heap-allocated closure per stripe and segment, on every scan.
	visits := make([]func(store.TupleRef, core.EpisodeTuple) bool, workers)
	for w := range visits {
		visits[w] = func(ref store.TupleRef, t core.EpisodeTuple) bool {
			if f.admits(ref, &t) {
				outs[w] = append(outs[w], Match{Ref: ref, Tuple: t})
			}
			return true
		}
	}
	fanOut(workers, units, func(w, u int) bool {
		if u < len(segs) {
			e.st.VisitColdSegmentTuples(segs[u], f.interp, visits[w])
		} else {
			e.st.VisitShardTuples(u-len(segs), f.interp, visits[w])
		}
		return true
	})
	out = outs[0]
	for _, chunk := range outs[1:] {
		out = append(out, chunk...)
	}
	return out
}

// pruneSegments returns the indexes of the cold segments a scan of f must
// visit: a segment is skipped only when the footer check proves no tuple
// inside can match. Untiered stores return nil. Each prune bumps the
// per-rule metric, and tr (when non-nil) records every decision for EXPLAIN
// ANALYZE.
func (e *Engine) pruneSegments(f *form, tr *Trace) []int {
	sums := e.st.ColdSummaries(nil)
	if len(sums) == 0 {
		return nil
	}
	overlay := e.st.OverlayCount() > 0
	segs := make([]int, 0, len(sums))
	for i := range sums {
		ok, rule := f.summaryAdmits(&sums[i], overlay)
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
