package query

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/spatial"
	"semitri/internal/store"
)

// Engine executes Queries over a Store through incrementally maintained
// secondary indexes. NewEngine attaches the engine to the store's append
// path (store.AttachIndex) and backfills from the store's current content,
// so it can be created before ingestion starts or over an already-loaded
// snapshot. An Engine is safe for concurrent use, including concurrently
// with live StreamProcessor ingestion into the same store.
//
// The engine's state is lock-striped like the store, with as many stripes
// as the store has, but each index is partitioned by its own natural key so
// a point lookup touches exactly one stripe:
//
//   - the inverted annotation index — (interpretation, key, value) → refs —
//     is striped by the hash of that triple,
//   - the per-object episode index (time-ordered by TimeIn) and the
//     idempotency bitmaps are striped by object id with the store's own
//     KeyHash, so objects that do not contend in the store do not contend
//     here either,
//   - the spatial index (spatial.HashGrid over episode bounding rectangles,
//     kind-tagged) is one engine-wide grid — window queries have no key to
//     route by, and episode closes are rare next to record appends, so a
//     single write lock never shows up in ingestion (see spatialIndex).
//
// Replaced interpretations and re-annotated tuples leave their old postings
// behind (removal would need a scan); stale postings cost a wasted
// resolution at query time, never a wrong result, because every candidate
// is re-verified against the store (see the package comment).
type Engine struct {
	st        *store.Store
	objShards []*objectShard
	annShards []*annShard
	spatial   spatialIndex
	// total counts indexed tuple positions — the full-scan cost estimate,
	// atomic so planning never locks for it.
	total atomic.Int64
	// par and serialThreshold hold the Options knobs (see parallel.go);
	// atomic so SetParallelism is safe against in-flight queries.
	par             atomic.Int32
	serialThreshold atomic.Int32
}

// objectShard is one object-routed stripe: time postings and the indexed
// bitmaps of the objects hashed here.
type objectShard struct {
	mu sync.RWMutex
	// objects holds each object's episode postings, sorted by TimeIn.
	objects map[string][]timedRef
	// indexed marks, per structured trajectory, which tuple positions were
	// indexed already — the idempotency guard that makes append
	// notifications, the backfill scan and replacement re-deliveries safe
	// to overlap.
	indexed map[stKey][]bool
}

// spatialIndex is the engine-wide episode-geometry index: one incremental
// grid behind its own RWMutex rather than a stripe per object, because a
// window query has no object to route by — striping would turn every
// lookup into a full fan-out. Writes are rare relative to reads (one insert
// per closed episode, versus one store append per GPS record), so a single
// write lock does not contend with ingestion in practice.
type spatialIndex struct {
	mu   sync.RWMutex
	grid *spatial.HashGrid
}

// spatialRef is the value stored with each episode rectangle: the ref plus
// the immutable prefilter fields, so kind- and interpretation-filtered
// window queries never resolve candidates of the wrong kind.
type spatialRef struct {
	ref  store.TupleRef
	kind episode.Kind
}

// annShard is one annotation-routed stripe of the inverted index.
type annShard struct {
	mu  sync.RWMutex
	ann map[annKey][]store.TupleRef
}

// annKey addresses one inverted-index posting list.
type annKey struct {
	interp string
	key    string
	value  string
}

// hash routes the key to an annotation stripe: FNV-1a over the three fields
// with NUL separators, folded incrementally so no joined string is ever
// allocated — this runs once per annotation on the ingest path and once per
// estimate/gather on the query path.
func (k annKey) hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, s := range [...]string{k.interp, k.key, k.value} {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= prime32
		}
		h *= prime32 // the NUL separator: h ^= 0 is a no-op
	}
	return h
}

// stKey addresses one structured trajectory.
type stKey struct {
	traj   string
	interp string
}

// timedRef is one entry of the per-object time index: the ref plus the
// immutable tuple fields the executor prefilters on before paying for store
// resolution.
type timedRef struct {
	ref     store.TupleRef
	timeIn  time.Time
	timeOut time.Time
	kind    episode.Kind
}

// SpatialCellSize is the bucket size of the episode grid, sized for
// city-scale episode geometry (a few hundred metres per stop/move).
const SpatialCellSize = 250.0

// NewEngine builds an engine over the store with default Options, attaches
// it to the store's append path and backfills the indexes from the store's
// current content. Creating a second engine over the same store detaches the
// first from future updates.
func NewEngine(st *store.Store) *Engine {
	return NewEngineWith(st, Options{})
}

// NewEngineWith is NewEngine with explicit execution Options.
func NewEngineWith(st *store.Store, opts Options) *Engine {
	n := st.ShardCount()
	e := &Engine{
		st:        st,
		objShards: make([]*objectShard, n),
		annShards: make([]*annShard, n),
	}
	e.par.Store(int32(opts.Parallelism))
	e.serialThreshold.Store(int32(opts.SerialThreshold))
	for i := 0; i < n; i++ {
		e.objShards[i] = &objectShard{
			objects: map[string][]timedRef{},
			indexed: map[stKey][]bool{},
		}
		e.annShards[i] = &annShard{ann: map[annKey][]store.TupleRef{}}
	}
	e.spatial.grid = spatial.NewHashGrid(SpatialCellSize)
	// Attach first, then backfill: tuples appended between the two steps are
	// delivered twice (once by the notification, once by the scan) and
	// deduplicated by the indexed bitmap; tuples appended before the attach
	// are picked up by the scan.
	st.AttachIndex(e)
	st.VisitStructuredTuples("", func(ref store.TupleRef, t core.EpisodeTuple) bool {
		e.index(ref, &t)
		return true
	})
	return e
}

// Store returns the store the engine executes against.
func (e *Engine) Store() *store.Store { return e.st }

// objShardFor routes an object id to its stripe (the store's own hash, so
// object routing agrees everywhere).
func (e *Engine) objShardFor(objectID string) *objectShard {
	if len(e.objShards) == 1 {
		return e.objShards[0]
	}
	return e.objShards[store.KeyHash(objectID)%uint32(len(e.objShards))]
}

// annShardFor routes an annotation key to its stripe.
func (e *Engine) annShardFor(k annKey) *annShard {
	if len(e.annShards) == 1 {
		return e.annShards[0]
	}
	return e.annShards[k.hash()%uint32(len(e.annShards))]
}

// index inserts one tuple's postings into the time, spatial and annotation
// indexes, guarded by the idempotency bitmap.
func (e *Engine) index(ref store.TupleRef, tp *core.EpisodeTuple) {
	sh := e.objShardFor(ref.ObjectID)
	sh.mu.Lock()
	if !sh.mark(ref) {
		sh.mu.Unlock()
		return // duplicate delivery (backfill overlapped a notification)
	}
	// Per-object time index: insertion-sort by TimeIn. Episodes close in
	// time order per object, so this is an append in the common case.
	tr := timedRef{ref: ref, timeIn: tp.TimeIn, timeOut: tp.TimeOut, kind: tp.Kind}
	refs := sh.objects[ref.ObjectID]
	pos := sort.Search(len(refs), func(i int) bool { return refs[i].timeIn.After(tr.timeIn) })
	refs = append(refs, timedRef{})
	copy(refs[pos+1:], refs[pos:])
	refs[pos] = tr
	sh.objects[ref.ObjectID] = refs
	sh.mu.Unlock()

	if tp.Episode != nil {
		e.spatial.mu.Lock()
		e.spatial.grid.Insert(spatial.Item{
			Rect:  tp.Episode.Bounds,
			Value: spatialRef{ref: ref, kind: tp.Kind},
		})
		e.spatial.mu.Unlock()
	}
	e.total.Add(1)
	e.indexAnnotations(ref, tp.Annotations.All())
}

// mark sets the indexed bit for ref, reporting false when it was already
// set. Caller holds sh.mu.
func (sh *objectShard) mark(ref store.TupleRef) bool {
	key := stKey{traj: ref.TrajectoryID, interp: ref.Interpretation}
	seen := sh.indexed[key]
	if ref.Index < len(seen) && seen[ref.Index] {
		return false
	}
	for len(seen) <= ref.Index {
		seen = append(seen, false)
	}
	seen[ref.Index] = true
	sh.indexed[key] = seen
	return true
}

// marked reports whether ref's indexed bit is set.
func (sh *objectShard) marked(ref store.TupleRef) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	seen := sh.indexed[stKey{traj: ref.TrajectoryID, interp: ref.Interpretation}]
	return ref.Index < len(seen) && seen[ref.Index]
}

// indexAnnotations adds inverted-index postings for the given annotations,
// each into its own stripe. A tuple is briefly time-indexed before it is
// annotation-indexed; queries in that window just miss it, as if they had
// run a moment earlier.
func (e *Engine) indexAnnotations(ref store.TupleRef, anns []core.Annotation) {
	for _, a := range anns {
		if a.Value == "" {
			continue
		}
		k := annKey{interp: ref.Interpretation, key: a.Key, value: a.Value}
		sh := e.annShardFor(k)
		sh.mu.Lock()
		sh.ann[k] = append(sh.ann[k], ref)
		sh.mu.Unlock()
	}
}

// TuplesAppended implements store.Index.
func (e *Engine) TuplesAppended(events []store.TupleEvent) {
	for i := range events {
		ev := &events[i]
		e.index(ev.Ref, &ev.Tuple)
	}
}

// StructuredReplaced implements store.Index: the whole tuple sequence of a
// structured trajectory was swapped (PutStructured). The indexed bitmap for
// it is reset so the new content indexes fresh; postings of the old content
// become stale and are dropped lazily at verification.
func (e *Engine) StructuredReplaced(trajectoryID, objectID, interpretation string, events []store.TupleEvent) {
	sh := e.objShardFor(objectID)
	key := stKey{traj: trajectoryID, interp: interpretation}
	sh.mu.Lock()
	dropped := int64(0)
	for _, b := range sh.indexed[key] {
		if b {
			dropped++
		}
	}
	delete(sh.indexed, key)
	sh.mu.Unlock()
	e.total.Add(-dropped)
	for i := range events {
		ev := &events[i]
		e.index(ev.Ref, &ev.Tuple)
	}
}

// TupleUpdated implements store.Index: a stored tuple gained annotations in
// place (the streaming close path merging the point layer's results). For
// an already-indexed position only the changed annotations need postings —
// time and geometry are immutable; an unmarked position (the update raced
// ahead of the backfill) indexes fully from the event's copy.
func (e *Engine) TupleUpdated(event store.TupleEvent) {
	if e.objShardFor(event.Ref.ObjectID).marked(event.Ref) {
		e.indexAnnotations(event.Ref, event.Changed)
		return
	}
	e.index(event.Ref, &event.Tuple)
}

// Execute plans and runs the query, returning matches in the canonical
// (object, trajectory, position) order. See Explain for the chosen plan.
func (e *Engine) Execute(q Query) ([]Match, error) {
	q = q.normalized()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	path := e.plan(&q).Path
	out := e.executeBuf(&q, path, nil, 0, nil)
	obs.QueryByPath[pathRank(path)].Inc()
	obs.QueryReturned.Add(int64(len(out)))
	return out, nil
}

// ExecuteExplained runs the query and also returns the plan it executed.
func (e *Engine) ExecuteExplained(q Query) ([]Match, Plan, error) {
	q = q.normalized()
	if err := q.Validate(); err != nil {
		return nil, Plan{}, err
	}
	t0 := time.Now()
	p := e.plan(&q)
	planNs := time.Since(t0).Nanoseconds()
	t1 := time.Now()
	out := e.executeBuf(&q, p.Path, nil, 0, nil)
	obs.QueryByPath[pathRank(p.Path)].Inc()
	obs.QueryPlanNs.ObserveNs(planNs)
	obs.QueryExecNs.ObserveNs(time.Since(t1).Nanoseconds())
	obs.QueryReturned.Add(int64(len(out)))
	return out, p, nil
}

// executeBuf gathers the chosen path's candidates, resolves them against the
// store, verifies every predicate and appends the matches to out (reusing
// its capacity), returning them in canonical order with Limit applied. q is
// normalized and valid, and must not escape — callers may reuse it.
// maxWorkers further caps the engine's parallelism for this execution; join
// probes pass 1 so the per-row fan-out (already parallel across rows) never
// nests goroutine pools. tr, when non-nil, collects per-stage timings and
// segment-prune decisions; probe hot paths pass nil, so tracing costs them
// nothing but the nil checks.
func (e *Engine) executeBuf(q *Query, path Path, out []Match, maxWorkers int, tr *Trace) []Match {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	switch path {
	case PathTrajectory:
		// Stored order is canonical order (one object, one trajectory,
		// ascending positions), so the limit stops the walk early.
		base := len(out)
		objectID, tuples, ok := e.st.TupleSnapshot(q.TrajectoryID, q.Interpretation)
		if !ok {
			tr.stage("store-walk", t0, 0)
			return out
		}
		for i := range tuples {
			ref := store.TupleRef{
				TrajectoryID:   q.TrajectoryID,
				ObjectID:       objectID,
				Interpretation: q.Interpretation,
				Index:          i,
			}
			if q.matches(ref, &tuples[i]) {
				out = append(out, Match{Ref: ref, Tuple: tuples[i]})
				if q.Limit > 0 && len(out) >= q.Limit {
					break
				}
			}
		}
		obs.QueryCandidates.Add(int64(len(tuples)))
		tr.addCandidates(len(tuples))
		tr.stage("store-walk", t0, len(out)-base)
		return out
	case PathScan:
		// Stripe order is not canonical, so the scan collects everything and
		// sorts; the comparator is a total order on the unique ref key, so
		// the unit interleaving of a parallel scan cannot show. A freeze
		// racing the scan can emit one logical ref from both the segment and
		// the still-unevicted heap (never neither), so adjacent duplicate
		// refs collapse after the sort.
		base := len(out)
		out = e.scanMatches(q, out, maxWorkers, tr)
		obs.QueryCandidates.Add(e.total.Load())
		tr.addCandidates(int(e.total.Load()))
		tr.stage("scan", t0, len(out)-base)
		var t1 time.Time
		if tr != nil {
			t1 = time.Now()
		}
		sort.Slice(out, func(i, j int) bool { return out[i].less(&out[j]) })
		dst := base
		for i := base; i < len(out); i++ {
			if i > base && out[i].Ref == out[dst-1].Ref {
				continue
			}
			out[dst] = out[i]
			dst++
		}
		out = out[:dst]
		if q.Limit > 0 && len(out) > q.Limit {
			out = out[:q.Limit]
		}
		tr.stage("sort-dedup", t1, len(out)-base)
		return out
	}
	sc := getScratch()
	sc.refs = e.gatherInto(q, path, sc.refs[:0])
	obs.QueryCandidates.Add(int64(len(sc.refs)))
	tr.addCandidates(len(sc.refs))
	tr.stage("gather", t0, len(sc.refs))
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	base := len(out)
	out = e.resolveRefs(q, sc, out, maxWorkers)
	tr.stage("resolve", t1, len(out)-base)
	putScratch(sc)
	return out
}

// gatherInto appends candidate refs from one indexed access path. Prefilters
// use only immutable posting fields; the authoritative check happens at
// resolution.
func (e *Engine) gatherInto(q *Query, path Path, refs []store.TupleRef) []store.TupleRef {
	switch path {
	case PathAnnotation:
		k := annKey{interp: q.Interpretation, key: q.AnnKey, value: q.AnnValue}
		sh := e.annShardFor(k)
		sh.mu.RLock()
		refs = append(refs, sh.ann[k]...)
		sh.mu.RUnlock()
	case PathObjectTime:
		sh := e.objShardFor(q.ObjectID)
		sh.mu.RLock()
		posted := sh.objects[q.ObjectID]
		// Postings are sorted by TimeIn: nothing after To can overlap.
		hi := len(posted)
		if !q.To.IsZero() {
			hi = sort.Search(len(posted), func(i int) bool { return posted[i].timeIn.After(q.To) })
		}
		for _, tr := range posted[:hi] {
			if tr.ref.Interpretation != q.Interpretation {
				continue
			}
			if !q.From.IsZero() && tr.timeOut.Before(q.From) {
				continue
			}
			if q.Kind != nil && tr.kind != *q.Kind {
				continue
			}
			refs = append(refs, tr.ref)
		}
		sh.mu.RUnlock()
	case PathSpatial:
		rect := q.spatialRect()
		e.spatial.mu.RLock()
		e.spatial.grid.Visit(rect, func(it spatial.Item) bool {
			sr := it.Value.(spatialRef)
			if sr.ref.Interpretation != q.Interpretation {
				return true
			}
			if q.Kind != nil && sr.kind != *q.Kind {
				return true
			}
			refs = append(refs, sr.ref)
			return true
		})
		e.spatial.mu.RUnlock()
	}
	return refs
}

// spatialRect returns the candidate rectangle of the spatial predicates
// (the window, the radius disc's bounding box, or their intersection). Only
// called when at least one spatial predicate is set.
func (q *Query) spatialRect() geo.Rect {
	if q.Near == nil {
		return *q.Window
	}
	r := geo.RectAround(*q.Near, q.Radius)
	if q.Window != nil {
		r = r.Intersection(*q.Window)
	}
	return r
}

// resolveRefs turns candidate refs into verified matches: dedup (paths can
// nominate a ref more than once — stale postings, re-annotation), resolve
// against the store, re-check every predicate. The refs in sc are sorted into
// the canonical *output* order — (object, trajectory, interpretation,
// position) — which deduplicates (adjacent equals), groups by trajectory
// with no map allocations, and means resolution emits matches already in
// final order: a limit stops the work as soon as it is met instead of after
// resolving everything, and parallel chunks concatenate without a merge
// sort. Each trajectory's run resolves with one store lock (one
// Store.AppendTuplesAt batch) — this is what makes indexed execution cheaper
// per candidate than a scan is per tuple.
func (e *Engine) resolveRefs(q *Query, sc *scratch, out []Match, maxWorkers int) []Match {
	refs := sc.refs
	if len(refs) == 0 {
		return out
	}
	sort.Slice(refs, func(i, j int) bool {
		a, b := &refs[i], &refs[j]
		if a.ObjectID != b.ObjectID {
			return a.ObjectID < b.ObjectID
		}
		if a.TrajectoryID != b.TrajectoryID {
			return a.TrajectoryID < b.TrajectoryID
		}
		if a.Interpretation != b.Interpretation {
			return a.Interpretation < b.Interpretation
		}
		return a.Index < b.Index
	})
	workers := e.workersFor(len(refs))
	if maxWorkers >= 1 {
		workers = min(workers, maxWorkers)
	}
	if workers <= 1 {
		return e.resolveChunk(nil, q, refs, out, sc)
	}
	return e.resolveParallel(q, refs, out, workers)
}

// resolveChunk resolves one contiguous range of canonically sorted refs,
// appending verified matches to out in that same order. It stops early once
// q.Limit matches are appended (the range's output prefix is the final
// output prefix), and, when ctx is non-nil, abandons the range between
// trajectory groups if a parallel sibling already satisfied the limit.
func (e *Engine) resolveChunk(ctx context.Context, q *Query, refs []store.TupleRef, out []Match, sc *scratch) []Match {
	base := len(out)
	for lo := 0; lo < len(refs); {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return out
			default:
			}
		}
		hi := lo + 1
		for hi < len(refs) &&
			refs[hi].TrajectoryID == refs[lo].TrajectoryID &&
			refs[hi].Interpretation == refs[lo].Interpretation {
			hi++
		}
		indexes := sc.indexes[:0]
		for i := lo; i < hi; i++ {
			if i > lo && refs[i].Index == refs[i-1].Index {
				continue // duplicate posting
			}
			indexes = append(indexes, refs[i].Index)
		}
		tuples, ok := e.st.AppendTuplesAt(refs[lo].TrajectoryID, refs[lo].Interpretation, indexes, sc.tuples[:0], sc.ok[:0])
		sc.indexes, sc.tuples, sc.ok = indexes, tuples, ok
		for i, idx := range indexes {
			if !ok[i] {
				continue // stale posting: the interpretation shrank on replace
			}
			ref := refs[lo]
			ref.Index = idx
			if !q.matches(ref, &tuples[i]) {
				continue
			}
			out = append(out, Match{Ref: ref, Tuple: tuples[i]})
			if q.Limit > 0 && len(out)-base >= q.Limit {
				return out
			}
		}
		lo = hi
	}
	return out
}

// Stats summarises the engine's index state.
type Stats struct {
	// IndexedTuples counts the distinct tuple positions indexed.
	IndexedTuples int
	// AnnotationPostings counts inverted-index entries (stale ones included).
	AnnotationPostings int
	// Objects counts moving objects with at least one posting.
	Objects int
	// SpatialItems counts episode rectangles in the spatial grid.
	SpatialItems int
	// Shards is the number of stripes per index.
	Shards int
	// Parallelism is the effective worker cap of parallel execution.
	Parallelism int
}

// IndexStats returns a snapshot of the engine's index state.
func (e *Engine) IndexStats() Stats {
	st := Stats{
		Shards:        len(e.objShards),
		IndexedTuples: int(e.total.Load()),
		Parallelism:   e.Parallelism(),
	}
	for _, sh := range e.objShards {
		sh.mu.RLock()
		st.Objects += len(sh.objects)
		sh.mu.RUnlock()
	}
	e.spatial.mu.RLock()
	st.SpatialItems = e.spatial.grid.Len()
	e.spatial.mu.RUnlock()
	for _, sh := range e.annShards {
		sh.mu.RLock()
		for _, refs := range sh.ann {
			st.AnnotationPostings += len(refs)
		}
		sh.mu.RUnlock()
	}
	return st
}
