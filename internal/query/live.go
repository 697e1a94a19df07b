package query

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"semitri/internal/obs"
	"semitri/internal/store"
)

// Live is the standing-query dispatcher: the bridge between the store's
// observer hook and continuous queries ("tell me when any object stops
// inside this window"). A Tap — attached alongside the query engine in one
// store.AttachIndex call — publishes every index notification onto a
// bounded event bus; a single dispatcher goroutine drains that bus and
// evaluates each event against every registered Standing query's
// predicate, off the ingest hot path, never touching the engine's indexes.
// The ingest path therefore pays one ring-buffer publish per notification
// batch regardless of how many thousand standing queries are registered
// (bench-asserted by the "live" experiment).
//
// Correctness model: a Standing tracks the set of refs whose latest
// observed event satisfies the predicate. Because the store delivers
// notifications for one (trajectory, interpretation) in mutation order and
// each event carries a stable tuple copy, that set equals a quiescent
// engine query once the dispatcher has caught up — property-tested against
// Engine.Execute. Backpressure can drop *delivery* of match notifications
// to a slow subscriber ring, but never corrupts the matched set and never
// produces a notification that was not a true match at evaluation time.
type Live struct {
	st  *store.Store
	bus *obs.Bus[tapEvent]
	// central is the dispatcher's own subscription. Its ring is the only
	// place where standing-query *evaluation* (not just delivery) can fall
	// behind; size it generously (see NewLive).
	central *obs.Sub[tapEvent]

	mu       sync.RWMutex
	standing map[*Standing]struct{}

	// idle is true while the dispatcher is parked with an empty ring —
	// together with central.Lag()==0 this is the Sync condition.
	idle atomic.Bool

	closeOnce sync.Once
	done      chan struct{}
}

// DefaultCentralBuffer is the dispatcher ring size used when NewLive gets
// n <= 0: one slot per notification batch, sized so evaluation only drops
// events when it falls a full freeze-cycle behind ingestion.
const DefaultCentralBuffer = 8192

// NewLive builds a dispatcher over st with a central ring of n batches and
// starts its goroutine. It does NOT attach to the store — wire the returned
// value's Tap alongside the engine:
//
//	st.AttachIndex(engine, live.Tap())
//
// Close it to stop the dispatcher and release every standing query.
func NewLive(st *store.Store, n int) *Live {
	if n <= 0 {
		n = DefaultCentralBuffer
	}
	l := &Live{
		st:       st,
		bus:      obs.NewBus[tapEvent](obs.LiveBusMetrics),
		standing: map[*Standing]struct{}{},
		done:     make(chan struct{}),
	}
	l.central = l.bus.Subscribe(n)
	go l.run()
	return l
}

// tapEvent is one store notification in transit: an upsert batch, optionally
// preceded by a whole-key clear (StructuredReplaced).
type tapEvent struct {
	clearKey bool
	key      stKey
	events   []store.TupleEvent
}

// tap adapts the store.Index hook onto the event bus. Each method is one
// ring publish — the entire cost standing queries add to the mutating
// goroutine.
type tap struct{ l *Live }

// Tap returns the store.Index to attach (beside the engine, via
// store.AttachIndex) for this dispatcher.
func (l *Live) Tap() store.Index { return tap{l} }

func (t tap) TuplesAppended(events []store.TupleEvent) {
	if len(events) == 0 {
		return
	}
	t.l.bus.Publish(tapEvent{events: events})
}

func (t tap) StructuredReplaced(trajectoryID, _, interpretation string, events []store.TupleEvent) {
	t.l.bus.Publish(tapEvent{
		clearKey: true,
		key:      stKey{traj: trajectoryID, interp: interpretation},
		events:   events,
	})
}

func (t tap) TupleUpdated(event store.TupleEvent) {
	t.l.bus.Publish(tapEvent{events: []store.TupleEvent{event}})
}

// run is the dispatcher goroutine: drain the central ring, evaluate every
// event against every standing query, park when empty.
func (l *Live) run() {
	defer close(l.done)
	buf := make([]tapEvent, 0, 256)
	for {
		buf = l.central.Drain(buf[:0])
		if len(buf) == 0 {
			l.idle.Store(true)
			if l.central.Lag() == 0 { // re-check after publishing idleness
				select {
				case <-l.central.C():
				case <-l.central.Done():
					// Bus closed: evaluate what was already buffered, then exit.
					l.idle.Store(false)
					for _, ev := range l.central.Drain(buf[:0]) {
						l.dispatch(ev)
					}
					return
				}
			}
			l.idle.Store(false)
			continue
		}
		for _, ev := range buf {
			l.dispatch(ev)
		}
	}
}

// dispatch evaluates one tap event against every registered standing query.
func (l *Live) dispatch(ev tapEvent) {
	start := time.Now()
	l.mu.RLock()
	for s := range l.standing {
		s.apply(ev)
	}
	n := len(l.standing)
	l.mu.RUnlock()
	if n > 0 {
		obs.LiveEventsEvaluated.Add(int64(len(ev.events)))
		obs.LiveDispatchNs.ObserveNs(time.Since(start).Nanoseconds())
	}
}

// Sync blocks until every event published before the call has been
// evaluated, assuming publishers are quiescent (it is a test/bench
// barrier, not a production fence).
func (l *Live) Sync() {
	for {
		select {
		case <-l.done:
			return
		default:
		}
		if l.central.Lag() == 0 && l.idle.Load() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BusStats exposes the tap bus's self-instrumentation (the central ring's
// drops are evaluation drops; per-subscriber delivery drops live on each
// Standing).
func (l *Live) BusStats() obs.BusStats { return l.bus.Stats() }

// EvalDrops returns how many tap events the dispatcher itself lost
// (central-ring drop-oldest) — events never evaluated against any standing
// query.
func (l *Live) EvalDrops() int64 { return l.central.Drops() }

// StandingCount returns the number of registered standing queries.
func (l *Live) StandingCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.standing)
}

// Close stops the dispatcher and closes every standing query. Idempotent.
func (l *Live) Close() {
	l.closeOnce.Do(func() {
		l.bus.Close() // closes central; dispatcher drains and exits
		<-l.done
		l.mu.Lock()
		standing := make([]*Standing, 0, len(l.standing))
		for s := range l.standing {
			standing = append(standing, s)
		}
		l.standing = map[*Standing]struct{}{}
		l.mu.Unlock()
		for _, s := range standing {
			s.release()
		}
	})
}

// Notification kinds delivered by a Standing subscription.
const (
	// NotifyMatch: the ref newly satisfies the predicate.
	NotifyMatch = "match"
	// NotifyUpdate: an already-matching ref changed content and still
	// satisfies the predicate.
	NotifyUpdate = "update"
	// NotifyUnmatch: a previously-matching ref no longer satisfies the
	// predicate (content change or whole-interpretation replacement).
	NotifyUnmatch = "unmatch"
)

// Notification is one standing-query delivery.
type Notification struct {
	Kind  string
	Match Match
}

// Standing is one registered standing query: an incrementally maintained
// matched-ref set plus a bounded notification ring (drop-oldest, like every
// bus subscriber — a slow consumer loses notifications, never the set).
type Standing struct {
	live *Live
	q    Query

	mu      sync.Mutex
	matched map[store.TupleRef]bool
	// byKey remembers which refs ever matched per (trajectory,
	// interpretation), so StructuredReplaced can retract them without a
	// scan. Entries may be stale (ref no longer matched); retraction
	// re-checks matched before emitting.
	byKey map[stKey][]store.TupleRef

	bus *obs.Bus[Notification]
	sub *obs.Sub[Notification]

	closeOnce sync.Once
}

// ErrStandingLimit rejects standing queries with a Limit: a result cap has
// no meaning for an unbounded notification stream.
var ErrStandingLimit = errors.New("query: standing queries cannot carry a limit")

// ErrLiveClosed reports registration against a closed dispatcher.
var ErrLiveClosed = errors.New("query: live dispatcher is closed")

// Register compiles q into a standing query with a notification ring of
// `buffer` entries (DefaultSubscriberBuffer when <= 0) and registers it
// with the dispatcher. The matched set starts empty and tracks events from
// this call on: register before ingestion starts for exact parity with a
// post-hoc engine query; a subscription created mid-ingestion converges as
// refs are next touched.
func (l *Live) Register(q Query, buffer int) (*Standing, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Limit != 0 {
		return nil, ErrStandingLimit
	}
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	q = q.normalized()
	s := &Standing{
		live:    l,
		q:       q,
		matched: map[store.TupleRef]bool{},
		byKey:   map[stKey][]store.TupleRef{},
		bus:     obs.NewBus[Notification](nil),
	}
	s.sub = s.bus.Subscribe(buffer)
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.done:
		return nil, ErrLiveClosed
	default:
	}
	l.standing[s] = struct{}{}
	obs.LiveStandingQueries.Add(1)
	return s, nil
}

// DefaultSubscriberBuffer is the per-standing notification ring size used
// when Register gets buffer <= 0.
const DefaultSubscriberBuffer = 256

// apply folds one tap event into the matched set, emitting notifications
// for transitions. Runs on the dispatcher goroutine (plus Close).
func (s *Standing) apply(ev tapEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.clearKey {
		for _, ref := range s.byKey[ev.key] {
			if s.matched[ref] {
				delete(s.matched, ref)
				s.bus.Publish(Notification{Kind: NotifyUnmatch, Match: Match{Ref: ref}})
			}
		}
		delete(s.byKey, ev.key)
	}
	for i := range ev.events {
		e := &ev.events[i]
		ok := s.q.matches(e.Ref, &e.Tuple)
		was := s.matched[e.Ref]
		switch {
		case ok && !was:
			s.matched[e.Ref] = true
			k := stKey{traj: e.Ref.TrajectoryID, interp: e.Ref.Interpretation}
			s.byKey[k] = append(s.byKey[k], e.Ref)
			obs.LiveMatches.Inc()
			s.bus.Publish(Notification{Kind: NotifyMatch, Match: Match{Ref: e.Ref, Tuple: e.Tuple}})
		case ok && was:
			s.bus.Publish(Notification{Kind: NotifyUpdate, Match: Match{Ref: e.Ref, Tuple: e.Tuple}})
		case !ok && was:
			delete(s.matched, e.Ref)
			s.bus.Publish(Notification{Kind: NotifyUnmatch, Match: Match{Ref: e.Ref}})
		}
	}
}

// Query returns the (normalized) compiled query.
func (s *Standing) Query() Query { return s.q }

// Sub returns the notification subscription: Drain/Next/C/Done per obs.Sub.
func (s *Standing) Sub() *obs.Sub[Notification] { return s.sub }

// Matched returns a snapshot of the refs currently satisfying the
// predicate (unordered).
func (s *Standing) Matched() []store.TupleRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]store.TupleRef, 0, len(s.matched))
	for ref := range s.matched {
		out = append(out, ref)
	}
	return out
}

// MatchedCount returns the current matched-set size.
func (s *Standing) MatchedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.matched)
}

// Drops returns notifications lost to this subscription's ring.
func (s *Standing) Drops() int64 { return s.sub.Drops() }

// Lag returns undelivered notifications buffered in the ring.
func (s *Standing) Lag() int { return s.sub.Lag() }

// Close deregisters the standing query and closes its notification stream.
// Idempotent; safe concurrently with dispatch.
func (s *Standing) Close() {
	l := s.live
	l.mu.Lock()
	delete(l.standing, s)
	l.mu.Unlock()
	s.release()
}

// release closes the notification stream and settles the gauge exactly once.
func (s *Standing) release() {
	s.closeOnce.Do(func() {
		obs.LiveStandingQueries.Add(-1)
		s.bus.Close()
	})
}
