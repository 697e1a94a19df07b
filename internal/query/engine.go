package query

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"semitri/internal/core"
	"semitri/internal/episode"
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
// Every posting is an 8-byte pointer-free value: the engine interns each
// structured trajectory — a (trajectory, interpretation) pair — the first
// time it indexes one of its tuples, giving it a dense uint32 and keeping
// {trajectory id, object id, interpretation} once, in an append-only table
// (stTable). A posting is that number plus the tuple's position. The table
// also keeps each structured trajectory's canonical rank, its place in
// (object, trajectory, interpretation) string order, so a query's candidates
// stay integers from gather to resolution: each posting becomes one uint64
// key, rank and position, that sorts into the canonical output order with no
// string compare, and only the positions being resolved are turned back into
// store.TupleRefs. Time postings add the kind and both times as UTC seconds
// plus nanoseconds (40 B in all), spatial postings are the bare 8 bytes
// beside the forest's rectangle and its 4-byte tree entry, and so are
// annotation postings. None of them holds a pointer, so the collector never
// traces the indexes' bulk.
//
// The engine's state is lock-striped like the store, with as many stripes
// as the store has, but each index is partitioned by its own natural key so
// a point lookup touches exactly one stripe:
//
//   - the inverted annotation index — (interpretation, key, value) →
//     postings — is striped by the hash of that triple,
//   - the per-object episode index (time-ordered by TimeIn) and the
//     interning map with its idempotency bitmaps are striped by object id
//     with the store's own KeyHash, so objects that do not contend in the
//     store do not contend here either,
//   - the spatial index is one spatial.Forest of episode rectangles, with
//     the postings in a parallel slice, per (interpretation, kind) — the
//     partition a query names, so a window walks only geometry it can
//     return. The partitions share one lock (see spatialIndex).
//
// Lock order: the interning table's lock is always taken last. A writer
// takes it (exclusively) only on a trajectory's first sight, while holding
// its object stripe; a reader takes it (shared) while holding the index
// lock it gathers under, so its snapshot covers every posting it can see,
// and resolves its candidates through that same snapshot, whose ranks no
// later intern changes. No code takes another lock while holding the
// table's.
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
	sts       stTable
	// total counts indexed tuple positions — the full-scan cost estimate,
	// atomic so planning never locks for it.
	total atomic.Int64
	// par holds Options.Parallelism and serialThreshold the test-only cutoff
	// (see parallel.go); atomic so SetParallelism is safe against in-flight
	// queries.
	par             atomic.Int32
	serialThreshold atomic.Int32
}

// posting addresses one indexed tuple: the interned number of its
// structured trajectory and its position there.
type posting struct {
	st, idx uint32
}

// stRow is one interned structured trajectory.
type stRow struct {
	traj, object, interp string
}

// compare is the canonical order of structured trajectories: object, then
// trajectory, then interpretation.
func (r *stRow) compare(o *stRow) int {
	if r.object != o.object {
		return strings.Compare(r.object, o.object)
	}
	if r.traj != o.traj {
		return strings.Compare(r.traj, o.traj)
	}
	return strings.Compare(r.interp, o.interp)
}

// stTable is the interning table: row i describes the structured trajectory
// whose postings carry st == i, rank[i] is that row's canonical rank — its
// place in stRow.compare order among the rows interned so far, ties in
// interning order — and order lists the row numbers by rank. Rows are
// append-only and never change, so a reader may keep the slice it
// snapshotted after releasing the lock. A new row moves the ranks after its
// own, so rank and order are written in place only while no snapshot holds
// them: snapshot sets shared, and the next intern copies both before it
// writes. Its lock is the last one taken (see Engine).
type stTable struct {
	mu     sync.RWMutex
	rows   []stRow
	rank   []uint32
	order  []uint32
	shared atomic.Bool
	// unranked defers ranking while NewEngine backfills (see rankAll).
	unranked bool
}

// stView is one snapshot of the interning table: rows, ranks and order of
// the same rows, none of which changes after it was taken.
type stView struct {
	rows        []stRow
	rank, order []uint32
}

// key is p's candidate key: its row's rank above its position, so that
// ascending keys are the canonical output order.
func (v *stView) key(p posting) uint64 { return uint64(v.rank[p.st])<<32 | uint64(p.idx) }

// row returns the row whose rank is in the high half of key.
func (v *stView) row(key uint64) *stRow { return &v.rows[v.order[key>>32]] }

// intern appends a row for ref's structured trajectory, ranks it, and
// returns its number. Callers hold the object stripe that guards first
// sight. Ranking binary-searches the row's place in order, inserts it there
// and renumbers the ranks of the rows after it: O(log S) string compares
// and O(S) integer moves for S rows, paid once per structured trajectory.
func (t *stTable) intern(ref store.TupleRef) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint32(len(t.rows))
	t.rows = append(t.rows, stRow{traj: ref.TrajectoryID, object: ref.ObjectID, interp: ref.Interpretation})
	if t.unranked {
		return id
	}
	row := &t.rows[id]
	pos := sort.Search(len(t.order), func(i int) bool { return row.compare(&t.rows[t.order[i]]) < 0 })
	if t.shared.Load() {
		t.rank = append(make([]uint32, 0, len(t.rank)+1), t.rank...)
		t.order = append(make([]uint32, 0, len(t.order)+1), t.order...)
		t.shared.Store(false)
	}
	order, rank := slices.Insert(t.order, pos, id), append(t.rank, 0)
	for r := pos; r < len(order); r++ {
		rank[order[r]] = uint32(r)
	}
	t.order, t.rank = order, rank
	return id
}

// rankAll ranks every row at once, with one sort, and has intern rank each
// new row from then on. NewEngine backfills with ranking deferred, so that
// an engine over S stored structured trajectories starts in O(S log S)
// rather than O(S²); no query can snapshot the table before it returns.
func (t *stTable) rankAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.order = make([]uint32, len(t.rows))
	for i := range t.order {
		t.order[i] = uint32(i)
	}
	slices.SortStableFunc(t.order, func(a, b uint32) int { return t.rows[a].compare(&t.rows[b]) })
	t.rank = make([]uint32, len(t.rows))
	for r, id := range t.order {
		t.rank[id] = uint32(r)
	}
	t.unranked = false
}

// snapshot returns the rows interned so far with their ranks. Taken under
// an index lock, it covers every posting that index holds.
func (t *stTable) snapshot() stView {
	t.mu.RLock()
	v := stView{rows: t.rows, rank: t.rank, order: t.order}
	if !t.shared.Load() {
		t.shared.Store(true)
	}
	t.mu.RUnlock()
	return v
}

// objectShard is one object-routed stripe: time postings, interned numbers
// and indexed bitmaps of the objects hashed here.
type objectShard struct {
	mu sync.RWMutex
	// objects holds each object's episode postings, sorted by TimeIn.
	objects map[string][]timedPosting
	// indexed maps each structured trajectory seen here to its interned
	// number and the bitmap of tuple positions indexed already — the
	// idempotency guard that makes append notifications, the backfill scan
	// and replacement re-deliveries safe to overlap.
	indexed map[stKey]stEntry
}

// stEntry is one structured trajectory's interned number and indexed bitmap.
type stEntry struct {
	id   uint32
	seen []bool
}

// spatialIndex is the episode-geometry index: one partition per
// (interpretation, kind), all behind one RWMutex rather than a stripe per
// object — striping would turn every window into a full fan-out, and one
// insert per closed episode does not contend with ingestion in practice.
type spatialIndex struct {
	mu sync.RWMutex
	// parts holds each interpretation's partitions, one per episode kind.
	parts map[string][]*spatialPart
}

// spatialPart is one partition: the rectangles of its kind's episodes and,
// by the forest's item number, their postings.
type spatialPart struct {
	kind     episode.Kind
	rects    spatial.Forest
	postings []posting
}

// part returns the partition of (interp, kind), adding it on first sight.
// Caller holds mu exclusively.
func (s *spatialIndex) part(interp string, kind episode.Kind) *spatialPart {
	for _, p := range s.parts[interp] {
		if p.kind == kind {
			return p
		}
	}
	p := &spatialPart{kind: kind}
	s.parts[interp] = append(s.parts[interp], p)
	return p
}

// annShard is one annotation-routed stripe of the inverted index.
type annShard struct {
	mu  sync.RWMutex
	ann map[annKey][]posting
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

// stamp is a time in an exact pointer-free form: seconds since the Unix
// epoch plus nanoseconds, as the store's fixes hold it. Comparing stamps
// agrees with comparing the times for every time whose Unix seconds fit an
// int64, whatever its location — UnixNano would not, outside 1678–2262.
type stamp struct {
	sec  int64
	nsec int32
}

func stampOf(t time.Time) stamp { return stamp{sec: t.Unix(), nsec: int32(t.Nanosecond())} }

func (a stamp) before(b stamp) bool { return a.sec < b.sec || a.sec == b.sec && a.nsec < b.nsec }

// timedPosting is one entry of the per-object time index: the posting plus
// the immutable tuple fields the executor prefilters on before paying for
// store resolution. The two stamps are kept unpacked so the entry packs
// into 40 bytes.
type timedPosting struct {
	p               posting
	inSec, outSec   int64
	inNsec, outNsec int32
	kind            episode.Kind
}

func (tp *timedPosting) timeIn() stamp  { return stamp{tp.inSec, tp.inNsec} }
func (tp *timedPosting) timeOut() stamp { return stamp{tp.outSec, tp.outNsec} }

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
	for i := 0; i < n; i++ {
		e.objShards[i] = &objectShard{
			objects: map[string][]timedPosting{},
			indexed: map[stKey]stEntry{},
		}
		e.annShards[i] = &annShard{ann: map[annKey][]posting{}}
	}
	e.spatial.parts = map[string][]*spatialPart{}
	e.sts.unranked = true
	// Attach first, then backfill: tuples appended between the two steps are
	// delivered twice (once by the notification, once by the scan) and
	// deduplicated by the indexed bitmap; tuples appended before the attach
	// are picked up by the scan.
	st.AttachIndex(e)
	st.VisitStructuredTuples("", func(ref store.TupleRef, t core.EpisodeTuple) bool {
		e.index(ref, &t)
		return true
	})
	e.sts.rankAll()
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
	p, fresh := sh.mark(&e.sts, ref)
	if !fresh {
		sh.mu.Unlock()
		return // duplicate delivery (backfill overlapped a notification)
	}
	// Per-object time index: insertion-sort by TimeIn. Episodes close in
	// time order per object, so this is an append in the common case.
	in, out := stampOf(tp.TimeIn), stampOf(tp.TimeOut)
	tr := timedPosting{p: p, inSec: in.sec, inNsec: in.nsec, outSec: out.sec, outNsec: out.nsec, kind: tp.Kind}
	posted := sh.objects[ref.ObjectID]
	pos := sort.Search(len(posted), func(i int) bool { return in.before(posted[i].timeIn()) })
	posted = append(posted, timedPosting{})
	copy(posted[pos+1:], posted[pos:])
	posted[pos] = tr
	sh.objects[ref.ObjectID] = posted
	sh.mu.Unlock()

	if tp.Episode != nil {
		e.spatial.mu.Lock()
		part := e.spatial.part(ref.Interpretation, tp.Kind)
		part.rects.Insert(tp.Episode.Bounds)
		part.postings = append(part.postings, p)
		e.spatial.mu.Unlock()
	}
	e.total.Add(1)
	e.indexAnnotations(ref.Interpretation, p, tp.Annotations.All())
}

// mark sets the indexed bit for ref, interning its structured trajectory on
// first sight, and returns ref's posting — fresh is false when the bit was
// already set. Caller holds sh.mu.
func (sh *objectShard) mark(t *stTable, ref store.TupleRef) (p posting, fresh bool) {
	key := stKey{traj: ref.TrajectoryID, interp: ref.Interpretation}
	ent, ok := sh.indexed[key]
	if !ok {
		ent.id = t.intern(ref)
	}
	p = posting{st: ent.id, idx: uint32(ref.Index)}
	if ref.Index < len(ent.seen) && ent.seen[ref.Index] {
		return p, false
	}
	for len(ent.seen) <= ref.Index {
		ent.seen = append(ent.seen, false)
	}
	ent.seen[ref.Index] = true
	sh.indexed[key] = ent
	return p, true
}

// marked returns ref's posting if its indexed bit is set.
func (sh *objectShard) marked(ref store.TupleRef) (posting, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ent := sh.indexed[stKey{traj: ref.TrajectoryID, interp: ref.Interpretation}]
	p := posting{st: ent.id, idx: uint32(ref.Index)}
	return p, ref.Index < len(ent.seen) && ent.seen[ref.Index]
}

// indexAnnotations adds inverted-index postings of p for the given
// annotations, each into its own stripe. A tuple is briefly time-indexed
// before it is annotation-indexed; queries in that window just miss it, as
// if they had run a moment earlier.
func (e *Engine) indexAnnotations(interp string, p posting, anns []core.Annotation) {
	for _, a := range anns {
		if a.Value == "" {
			continue
		}
		k := annKey{interp: interp, key: a.Key, value: a.Value}
		sh := e.annShardFor(k)
		sh.mu.Lock()
		sh.ann[k] = append(sh.ann[k], p)
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
// it is reset so the new content indexes fresh under the same interned
// number; postings of the old content become stale and are dropped lazily
// at verification.
func (e *Engine) StructuredReplaced(trajectoryID, objectID, interpretation string, events []store.TupleEvent) {
	sh := e.objShardFor(objectID)
	key := stKey{traj: trajectoryID, interp: interpretation}
	sh.mu.Lock()
	dropped := int64(0)
	if ent, ok := sh.indexed[key]; ok {
		for _, b := range ent.seen {
			if b {
				dropped++
			}
		}
		sh.indexed[key] = stEntry{id: ent.id}
	}
	sh.mu.Unlock()
	e.total.Add(-dropped)
	for i := range events {
		ev := &events[i]
		e.index(ev.Ref, &ev.Tuple)
	}
}

// TupleUpdated implements store.Index: a stored tuple was replaced by a
// copy with annotations merged in (the streaming close path merging the
// point layer's results). For an already-indexed position only the changed
// annotations need postings — time and geometry do not change; an unmarked
// position (the update raced ahead of the backfill) indexes fully from the
// event's copy.
func (e *Engine) TupleUpdated(event store.TupleEvent) {
	if p, ok := e.objShardFor(event.Ref.ObjectID).marked(event.Ref); ok {
		e.indexAnnotations(event.Ref.Interpretation, p, event.Changed)
		return
	}
	e.index(event.Ref, &event.Tuple)
}

// Execute plans and runs the query, returning matches in the canonical
// (object, trajectory, position) order. See Explain for the chosen plan.
func (e *Engine) Execute(q Query) ([]Match, error) {
	out, _, err := e.execute(q, nil)
	return out, err
}

// ExecuteExplained runs the query and also returns the plan it executed.
func (e *Engine) ExecuteExplained(q Query) ([]Match, Plan, error) {
	return e.execute(q, nil)
}

// execute collects the query's matches (see executeInto).
func (e *Engine) execute(q Query, tr *Trace) ([]Match, Plan, error) {
	var s sink
	p, err := e.executeInto(q, &s, tr)
	return s.out, p, err
}

// executeInto is the one body behind Execute, ExecuteExplained,
// ExecuteTraced and the grouped executions: plan, run into s, and record
// the query's metrics — the path counter and the planning and execution
// latencies. tr, when non-nil, is filled with the execution trace; untraced
// queries do no trace work.
func (e *Engine) executeInto(q Query, s *sink, tr *Trace) (Plan, error) {
	f, err := compile(q)
	if err != nil {
		return Plan{}, err
	}
	t0 := time.Now()
	p := e.plan(&f)
	t1 := time.Now()
	e.executeBuf(&f, p.Path, s, 0, tr)
	t2 := time.Now()
	planNs, execNs := t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	if tr != nil {
		tr.Kind, tr.Plan, tr.Path = "query", p.String(), string(p.Path)
		tr.PlanNs, tr.ExecNs, tr.TotalNs = planNs, execNs, t2.Sub(t0).Nanoseconds()
		tr.Returned = s.rows
	}
	obs.QueryByPath[pathRank(p.Path)].Inc()
	obs.QueryPlanNs.ObserveNs(planNs)
	obs.QueryExecNs.ObserveNs(execNs)
	obs.QueryReturned.Add(int64(s.rows))
	return p, nil
}

// sink is where an execution puts the rows it admits: appended to out as
// Matches, or, when agg is set, folded into groups, with no Match built.
// rows counts the rows it took. Parallel stages give each worker or
// resolution chunk a sink of its own and merge them into the caller's.
type sink struct {
	agg    *Aggregate
	out    []Match
	groups groups
	rows   int
}

// add takes the admitted tuple tp stored at ref.
func (s *sink) add(ref *store.TupleRef, tp *core.EpisodeTuple) {
	s.rows++
	if s.agg == nil {
		s.out = append(s.out, Match{Ref: *ref, Tuple: *tp})
		return
	}
	s.groups.row(s.agg, ref, tp)
}

// sibling returns an empty sink that collects or folds like s.
func (s *sink) sibling() *sink {
	if s.agg == nil {
		return &sink{}
	}
	return &sink{agg: s.agg, groups: newGroups(s.agg)}
}

// merge moves o's rows into s: its matches after s's, or its groups folded
// into s's.
func (s *sink) merge(o *sink) {
	s.rows += o.rows
	if s.agg == nil {
		s.out = append(s.out, o.out...)
		return
	}
	s.groups.merge(o.groups)
}

// truncate caps the matches s collected from base on at limit (0: none).
func (s *sink) truncate(base, limit int) {
	if limit > 0 && len(s.out)-base > limit {
		s.rows -= len(s.out) - base - limit
		s.out = s.out[:base+limit]
	}
}

// executeBuf gathers the chosen path's candidates, resolves them against the
// store, verifies every predicate and puts the admitted rows into s: a
// collecting sink gets the matches in canonical order with the limit
// applied, reusing its capacity, and a folding one (which has no limit)
// gets every row folded as the path produces it, in no order and with no
// sort. f must not escape — callers may reuse it.
// maxWorkers further caps the engine's parallelism for this execution; join
// probes pass 1 so the per-row fan-out (already parallel across rows) never
// nests goroutine pools. tr, when non-nil, collects per-stage timings;
// probe hot paths pass nil, so tracing costs them nothing but the nil
// checks.
func (e *Engine) executeBuf(f *form, path Path, s *sink, maxWorkers int, tr *Trace) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	switch path {
	case PathTrajectory:
		// Stored order is canonical order (one object, one trajectory,
		// ascending positions), so the limit stops the walk early.
		rows := s.rows
		st, ok := e.st.Structured(f.traj, f.interp)
		if !ok {
			tr.stage("store-walk", t0, 0)
			return
		}
		for i, tp := range st.Tuples {
			ref := store.TupleRef{
				TrajectoryID:   f.traj,
				ObjectID:       st.ObjectID,
				Interpretation: f.interp,
				Index:          i,
			}
			if f.admits(ref, tp) {
				s.add(&ref, tp)
				if f.limit > 0 && s.rows-rows >= f.limit {
					break
				}
			}
		}
		obs.QueryCandidates.Add(int64(len(st.Tuples)))
		tr.addCandidates(len(st.Tuples))
		tr.stage("store-walk", t0, s.rows-rows)
		return
	case PathScan:
		// The scan's cut reads every ref once (see scan), so a fold is done
		// when the scan is. Stripe order is not canonical, so
		// collected matches are sorted; the comparator is a total order on
		// the unique ref key, so the unit interleaving of a parallel scan
		// cannot show.
		rows, base := s.rows, len(s.out)
		e.scan(f, s, maxWorkers)
		obs.QueryCandidates.Add(e.total.Load())
		tr.addCandidates(int(e.total.Load()))
		tr.stage("scan", t0, s.rows-rows)
		if s.agg != nil {
			return
		}
		var t1 time.Time
		if tr != nil {
			t1 = time.Now()
		}
		sort.Sort(byRef(s.out[base:]))
		s.truncate(base, f.limit)
		tr.stage("sort", t1, s.rows-rows)
		return
	}
	sc := getScratch()
	sc.keys, sc.view = e.gatherInto(f, path, sc.keys[:0])
	obs.QueryCandidates.Add(int64(len(sc.keys)))
	tr.addCandidates(len(sc.keys))
	tr.stage("gather", t0, len(sc.keys))
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	rows := s.rows
	e.resolveRefs(f, sc, s, maxWorkers)
	tr.stage("resolve", t1, s.rows-rows)
	sc.view = stView{} // a pooled scratch must not keep the snapshot's arrays alive
	putScratch(sc)
}

// gatherInto appends the candidate keys of one indexed access path (see
// stView.key) and returns them with the interning table's snapshot they
// were keyed by. Its filters read only the clauses the postings carry (see
// form); the tuple check at resolution is the exact one.
func (e *Engine) gatherInto(f *form, path Path, keys []uint64) ([]uint64, stView) {
	var v stView
	switch path {
	case PathAnnotation:
		a, _ := f.indexedAnn()
		k := annKey{interp: f.interp, key: a.key, value: a.value}
		sh := e.annShardFor(k)
		sh.mu.RLock()
		v = e.sts.snapshot()
		for _, p := range sh.ann[k] {
			keys = append(keys, v.key(p))
		}
		sh.mu.RUnlock()
	case PathObjectTime:
		sh := e.objShardFor(f.object)
		sh.mu.RLock()
		v = e.sts.snapshot()
		posted := sh.objects[f.object]
		// Postings are sorted by TimeIn: nothing after hi can match.
		hi := sort.Search(len(posted), func(i int) bool { return f.hi.before(posted[i].timeIn()) })
		for i := range posted[:hi] {
			tp := &posted[i]
			if v.rows[tp.p.st].interp != f.interp || tp.timeOut().before(f.lo) || f.kinds&kindBit(tp.kind) == 0 {
				continue
			}
			keys = append(keys, v.key(tp.p))
		}
		sh.mu.RUnlock()
	case PathSpatial:
		e.spatial.mu.RLock()
		v = e.sts.snapshot()
		for _, part := range e.spatial.parts[f.interp] {
			if f.kinds&kindBit(part.kind) == 0 {
				continue
			}
			part.rects.Visit(f.gather, func(id int32) bool {
				keys = append(keys, v.key(part.postings[id]))
				return true
			})
		}
		e.spatial.mu.RUnlock()
	}
	return keys, v
}

// resolveRefs turns the candidate keys in sc into verified rows. It sorts
// the keys, which puts them in the canonical *output* order — (object,
// trajectory, interpretation, position) — with integer compares only, drops
// adjacent equal keys (paths can nominate a position more than once — stale
// postings, re-annotation), and resolves each run of keys sharing a rank,
// one structured trajectory, with one store lock (one Store.AppendTuplesAt
// batch) — this is what makes indexed execution cheaper per candidate than
// a scan is per tuple. Because resolution emits matches already in final
// order, a limit stops the work as soon as it is met instead of after
// resolving everything, and parallel chunks concatenate without a merge
// sort.
func (e *Engine) resolveRefs(f *form, sc *scratch, s *sink, maxWorkers int) {
	if len(sc.keys) == 0 {
		return
	}
	slices.Sort(sc.keys)
	sc.keys = slices.Compact(sc.keys)
	if workers := e.workersFor(len(sc.keys), maxWorkers); workers > 1 {
		e.resolveParallel(f, sc.keys, &sc.view, s, workers)
		return
	}
	// One worker resolves straight into s: no chunk sinks to merge, which
	// keeps a join's per-row probes allocation-free.
	e.resolveChunk(f, sc.keys, &sc.view, s, sc, nil)
}

// resolveChunk resolves one contiguous range of sorted, distinct candidate
// keys of v, putting the verified rows into s in that same order. A run of
// keys sharing a rank is one structured trajectory: its row's clauses are
// checked once, and a TupleRef is built only for a position that store
// resolution returns. It stops early once f.limit rows are put (the range's
// output prefix is the final output prefix), and, when stop is non-nil,
// abandons the range between trajectory groups once a parallel sibling
// raised it.
func (e *Engine) resolveChunk(f *form, keys []uint64, v *stView, s *sink, sc *scratch, stop *atomic.Bool) {
	rows := s.rows
	for lo := 0; lo < len(keys); {
		if stop != nil && stop.Load() {
			return
		}
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		row := v.row(keys[lo])
		if !f.admitsRow(row.traj, row.object, row.interp) {
			lo = hi
			continue
		}
		indexes := sc.indexes[:0]
		for _, k := range keys[lo:hi] {
			indexes = append(indexes, int(uint32(k)))
		}
		tuples, ok := e.st.AppendTuplesAt(row.traj, row.interp, indexes, sc.tuples[:0], sc.ok[:0])
		sc.indexes, sc.tuples, sc.ok = indexes, tuples, ok
		for i, idx := range indexes {
			if !ok[i] {
				continue // stale posting: the interpretation shrank on replace
			}
			if !f.admitsTuple(&tuples[i]) {
				continue
			}
			ref := store.TupleRef{TrajectoryID: row.traj, ObjectID: row.object, Interpretation: row.interp, Index: idx}
			s.add(&ref, &tuples[i])
			if f.limit > 0 && s.rows-rows >= f.limit {
				return
			}
		}
		lo = hi
	}
}

// Stats summarises the engine's index state.
type Stats struct {
	// IndexedTuples counts the distinct tuple positions indexed.
	IndexedTuples int
	// AnnotationPostings counts inverted-index entries (stale ones included).
	AnnotationPostings int
	// Objects counts moving objects with at least one posting.
	Objects int
	// SpatialItems counts episode rectangles in the spatial index.
	SpatialItems int
	// IndexBytes estimates the heap the indexes hold: every table's length
	// or capacity times its entry size, map entries at mapEntryBytes.
	// Strings are not counted; the engine shares them with the store.
	IndexBytes int
	// Shards is the number of stripes per index.
	Shards int
	// Parallelism is the effective worker cap of parallel execution.
	Parallelism int
}

// mapEntryBytes estimates one entry's share of a Go map whose key and value
// take kv bytes: the slot plus its control byte, over the ~5/8 mean load of
// a table that doubles when it is 7/8 full.
func mapEntryBytes(kv uintptr) int { return int(kv+1) * 8 / 5 }

// IndexStats returns a snapshot of the engine's index state.
func (e *Engine) IndexStats() Stats {
	st := Stats{
		Shards:        len(e.objShards),
		IndexedTuples: int(e.total.Load()),
		Parallelism:   e.Parallelism(),
	}
	var (
		objectEntry = mapEntryBytes(unsafe.Sizeof("") + unsafe.Sizeof([]timedPosting(nil)))
		stEntrySize = mapEntryBytes(unsafe.Sizeof(stKey{}) + unsafe.Sizeof(stEntry{}))
		annEntry    = mapEntryBytes(unsafe.Sizeof(annKey{}) + unsafe.Sizeof([]posting(nil)))
		interpEntry = mapEntryBytes(unsafe.Sizeof("") + unsafe.Sizeof([]*spatialPart(nil)))
		partBytes   = int(unsafe.Sizeof(spatialPart{}) + unsafe.Sizeof((*spatialPart)(nil)))
	)
	for _, sh := range e.objShards {
		sh.mu.RLock()
		st.Objects += len(sh.objects)
		st.IndexBytes += len(sh.objects)*objectEntry + len(sh.indexed)*stEntrySize
		for _, posted := range sh.objects {
			st.IndexBytes += cap(posted) * int(unsafe.Sizeof(timedPosting{}))
		}
		for _, ent := range sh.indexed {
			st.IndexBytes += cap(ent.seen)
		}
		sh.mu.RUnlock()
	}
	e.spatial.mu.RLock()
	for _, parts := range e.spatial.parts {
		st.IndexBytes += interpEntry
		for _, part := range parts {
			st.SpatialItems += part.rects.Len()
			st.IndexBytes += partBytes + part.rects.Footprint() + cap(part.postings)*int(unsafe.Sizeof(posting{}))
		}
	}
	e.spatial.mu.RUnlock()
	for _, sh := range e.annShards {
		sh.mu.RLock()
		st.IndexBytes += len(sh.ann) * annEntry
		for _, posted := range sh.ann {
			st.AnnotationPostings += len(posted)
			st.IndexBytes += cap(posted) * int(unsafe.Sizeof(posting{}))
		}
		sh.mu.RUnlock()
	}
	v := e.sts.snapshot()
	st.IndexBytes += cap(v.rows)*int(unsafe.Sizeof(stRow{})) + (cap(v.rank)+cap(v.order))*int(unsafe.Sizeof(uint32(0)))
	return st
}
