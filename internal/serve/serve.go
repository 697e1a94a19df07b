// Package serve is the HTTP JSON serving layer over the query engine: the
// online face of the reproduction, standing in for the application tier the
// paper puts on top of its PostgreSQL/PostGIS store (§1's "who stopped at a
// restaurant between 12:00 and 14:00 inside this region", served while the
// annotation middleware keeps ingesting).
//
// The handler is deliberately a plain net/http mux so cmd/semitri-serve,
// the examples and the tests all share one implementation:
//
//	GET /healthz             liveness + store counts (503 when the WAL or
//	                         checkpointing is degraded, see WithHealth)
//	GET /query/episodes      episode tuples matching a Query (see decodeQuery)
//	GET /query/relational    a relational-language statement (?q=...): typed
//	                         joins, aggregation, the parsed one-liner of
//	                         internal/query/lang, plan echoed back
//	GET /query/trajectories  per-trajectory summaries (?object= filters)
//	GET /query/objects       per-object counts (?object= filters)
//	GET /stats               analytics snapshot (episode/category/mode/
//	                         compression aggregates + index state + metrics)
//	GET /metrics             Prometheus text exposition of the metric registry
//	GET /debug/queries       the N slowest queries served so far (ring buffer)
//	GET /debug/pprof/...     net/http/pprof handlers (with WithProfiling)
//	GET /debug/trace         runtime/trace capture, ?seconds=N (WithProfiling)
//
// Every query endpoint accepts ?trace=1 and then carries a "trace" object in
// the response: the EXPLAIN ANALYZE view of the request — the plan, per-stage
// wall times, rows in/out and candidates examined (a scan reads frozen
// tuples by key and reports no per-segment decision).
//
// Every endpoint answers compact one-line JSON, written once with its
// Content-Length; errors answer {"error": ...} with a 4xx/5xx status (all
// parameters decode through one shared decoder, see decode.go), and a body
// that does not encode — a NaN, a year past 9999 — answers 500.
// Queries run against live data: the engine's indexes are maintained from
// the store's append path, so results reflect ingestion up to the moment
// the request resolved.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"semitri/internal/analytics"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/obs"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/store"
)

// slowLogSize is the capacity of the slowest-queries ring buffer behind
// GET /debug/queries.
const slowLogSize = 32

// Server serves the query engine (and the store behind it) over HTTP.
type Server struct {
	engine *query.Engine
	st     *store.Store
	slow   *obs.SlowLog

	health    func() []string
	profiling bool

	live      *query.Live
	history   *obs.History
	heartbeat time.Duration
}

// Option configures optional server behaviour.
type Option func(*Server)

// WithProfiling mounts the net/http/pprof handlers under /debug/pprof/ and
// the runtime-trace capture endpoint at /debug/trace. Off by default:
// profiles expose process internals and belong behind an operator's choice.
func WithProfiling() Option { return func(s *Server) { s.profiling = true } }

// WithHealth attaches a health probe to GET /healthz: fn returns the current
// degradation reasons (a stalled WAL flusher, a failed checkpoint, ...);
// an empty slice means healthy. With reasons present the endpoint answers
// 503 with {"status": "degraded", "reasons": [...]}. Every evaluation is
// mirrored into the semitri_health_degraded gauge and the per-reason-class
// counters, so scrapers alert without parsing the JSON body.
func WithHealth(fn func() []string) Option { return func(s *Server) { s.health = fn } }

// WithLive mounts GET /subscribe: standing-query subscriptions over SSE,
// dispatched by l (see internal/query.Live).
func WithLive(l *query.Live) Option { return func(s *Server) { s.live = l } }

// WithHistory mounts GET /metrics/history (ring time-series per metric) and
// GET /metrics/stream (sampled ticks over SSE), backed by h. The caller owns
// h's sampler lifecycle (Start/Close).
func WithHistory(h *obs.History) Option { return func(s *Server) { s.history = h } }

// WithSSEHeartbeat overrides the SSE heartbeat cadence (default
// DefaultSSEHeartbeat) — the interval at which idle /subscribe and
// /metrics/stream connections emit a heartbeat event echoing the
// subscription's drop/lag counters.
func WithSSEHeartbeat(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.heartbeat = d
		}
	}
}

// The front door's connection deadlines (see NewHTTPServer).
const (
	// ReadHeaderTimeout is how long a client has to send its request
	// header once it connected.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout is how long a keep-alive connection may wait for its
	// next request.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the front door's http.Server, serving handler on
// addr: a client that has not sent its whole request header within
// ReadHeaderTimeout is disconnected, so a half-sent header cannot hold a
// connection and its goroutine for ever, and an idle keep-alive connection
// is closed after IdleTimeout. It sets no write timeout: the SSE streams
// are long-lived, and a write deadline would cut them.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler,
		ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// New builds a server over the engine and its store.
func New(engine *query.Engine, opts ...Option) *Server {
	s := &Server{
		engine:    engine,
		st:        engine.Store(),
		slow:      obs.NewSlowLog(slowLogSize),
		heartbeat: DefaultSSEHeartbeat,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /query/episodes", s.handleEpisodes)
	mux.HandleFunc("GET /query/relational", s.handleRelational)
	mux.HandleFunc("GET /query/trajectories", s.handleTrajectories)
	mux.HandleFunc("GET /query/objects", s.handleObjects)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /metrics/stream", s.handleMetricsStream)
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /debug/queries", s.handleSlowQueries)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	if s.profiling {
		s.registerProfiling(mux)
	}
	return mux
}

// evalHealth runs the health probe (nil-safe) and mirrors the outcome into
// the metric catalogue: the degraded gauge tracks the current state, the
// per-reason-class counters count degraded evaluations. Called from every
// endpoint that reports health, so scrapes and probes stay consistent.
func (s *Server) evalHealth() []string {
	if s.health == nil {
		return nil
	}
	reasons := s.health()
	if len(reasons) == 0 {
		obs.HealthDegraded.Set(0)
		return nil
	}
	obs.HealthDegraded.Set(1)
	for _, reason := range reasons {
		obs.HealthReasonCounter(reason).Inc()
	}
	return reasons
}

// recordSlow offers one served query to the slow-query ring buffer (with its
// trace attached when the request asked for one).
func (s *Server) recordSlow(source string, r *http.Request, elapsed time.Duration, tr *query.Trace) {
	q := obs.SlowQuery{At: time.Now(), Source: source, Query: r.URL.RawQuery, Ns: elapsed.Nanoseconds()}
	if tr != nil {
		q.Trace = tr
	}
	s.slow.Record(q)
}

// maxPooledBody is the largest body buffer returned to the pool: a buffer a
// huge scan grew past it is dropped, so one big answer does not pin memory.
const maxPooledBody = 1 << 20

var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers status with v as compact JSON, or 500 with an
// {"error": ...} body when v does not encode. The body is encoded in full
// before anything is written, then written once with its Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // fails only when the client is gone
}

// writeError writes an {"error": ...} body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// jsonMatch is the wire form of one query result.
type jsonMatch struct {
	Trajectory     string            `json:"trajectory"`
	Object         string            `json:"object"`
	Interpretation string            `json:"interpretation"`
	Index          int               `json:"index"`
	Kind           string            `json:"kind"`
	Place          *jsonPlace        `json:"place,omitempty"`
	TimeIn         time.Time         `json:"time_in"`
	TimeOut        time.Time         `json:"time_out"`
	Annotations    []core.Annotation `json:"annotations,omitempty"`
	Center         *jsonPoint        `json:"center,omitempty"`
}

type jsonPlace struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	Category string `json:"category,omitempty"`
}

type jsonPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func toJSONMatch(m query.Match) jsonMatch {
	out := jsonMatch{
		Trajectory:     m.Ref.TrajectoryID,
		Object:         m.Ref.ObjectID,
		Interpretation: m.Ref.Interpretation,
		Index:          m.Ref.Index,
		Kind:           m.Tuple.Kind.String(),
		TimeIn:         m.Tuple.TimeIn,
		TimeOut:        m.Tuple.TimeOut,
		Annotations:    m.Tuple.Annotations.All(),
	}
	if pl := m.Tuple.Place; pl != nil {
		out.Place = &jsonPlace{ID: pl.ID, Kind: pl.Kind.String(), Name: pl.Name, Category: pl.Category}
	}
	if ep := m.Tuple.Episode; ep != nil {
		out.Center = &jsonPoint{X: ep.Center.X, Y: ep.Center.Y}
	}
	return out
}

// handleEpisodes answers GET /query/episodes: the tuples matching the
// parsed Query, plus the plan the engine executed (estimates per access
// path, chosen path first in the "plan" string). With ?trace=1 the response
// additionally carries the per-stage execution trace.
func (s *Server) handleEpisodes(w http.ResponseWriter, r *http.Request) {
	d := newDecoder(r)
	traced := d.boolVal("trace")
	q, err := decodeQuery(d)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var (
		ms   []query.Match
		plan query.Plan
		tr   *query.Trace
	)
	start := time.Now()
	if traced {
		ms, plan, tr, err = s.engine.ExecuteTraced(q)
	} else {
		ms, plan, err = s.engine.ExecuteExplained(q)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.recordSlow("/query/episodes", r, time.Since(start), tr)
	matches := make([]jsonMatch, len(ms))
	for i, m := range ms {
		matches[i] = toJSONMatch(m)
	}
	body := map[string]any{
		"count":   len(matches),
		"plan":    plan.String(),
		"path":    plan.Path,
		"matches": matches,
	}
	if tr != nil {
		body["trace"] = tr
	}
	writeJSON(w, http.StatusOK, body)
}

// jsonPair is the wire form of one join result pair.
type jsonPair struct {
	Left  jsonMatch `json:"left"`
	Right jsonMatch `json:"right"`
}

// handleRelational answers GET /query/relational: one statement of the
// relational query language (?q=..., see internal/query/lang for the
// grammar) compiled to the typed Query/Join/Aggregate structs and executed
// by the engine. The response carries the executed plan — for joins, the
// build side the planner picked, both cardinality estimates and the access
// paths the probes ran through — plus matches, pairs or groups depending on
// the statement shape.
func (s *Server) handleRelational(w http.ResponseWriter, r *http.Request) {
	d := newDecoder(r)
	src := d.str("q")
	traced := d.boolVal("trace")
	if err := d.Err(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if src == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing q parameter (a relational query string)"))
		return
	}
	var (
		res lang.Result
		tr  *query.Trace
		err error
	)
	start := time.Now()
	if traced {
		res, tr, err = lang.RunTraced(s.engine, src)
	} else {
		res, err = lang.Run(s.engine, src)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.recordSlow("/query/relational", r, time.Since(start), tr)
	body := map[string]any{"query": src, "plan": res.Plan}
	if tr != nil {
		body["trace"] = tr
	}
	switch {
	case res.Groups != nil:
		body["count"] = len(res.Groups)
		body["groups"] = res.Groups
	case res.Pairs != nil:
		pairs := make([]jsonPair, len(res.Pairs))
		for i, p := range res.Pairs {
			pairs[i] = jsonPair{Left: toJSONMatch(p.Left), Right: toJSONMatch(p.Right)}
		}
		body["count"] = len(pairs)
		body["pairs"] = pairs
	default:
		matches := make([]jsonMatch, len(res.Matches))
		for i, m := range res.Matches {
			matches[i] = toJSONMatch(m)
		}
		body["count"] = len(matches)
		body["matches"] = matches
	}
	writeJSON(w, http.StatusOK, body)
}

// jsonTrajectory is the wire form of one trajectory summary.
type jsonTrajectory struct {
	ID              string    `json:"id"`
	Object          string    `json:"object"`
	Records         int       `json:"records"`
	Stops           int       `json:"stops"`
	Moves           int       `json:"moves"`
	Interpretations []string  `json:"interpretations"`
	Start           time.Time `json:"start,omitzero"`
	End             time.Time `json:"end,omitzero"`
}

// handleTrajectories answers GET /query/trajectories: summaries of the
// stored trajectories, all of them or one object's (?object=).
func (s *Server) handleTrajectories(w http.ResponseWriter, r *http.Request) {
	d := newDecoder(r)
	object := d.str("object")
	start := time.Now()
	ids := s.st.TrajectoryIDs(object)
	out := make([]jsonTrajectory, 0, len(ids))
	for _, id := range ids {
		jt := jsonTrajectory{ID: id, Object: object, Interpretations: s.st.Interpretations(id)}
		if obj, n, first, last, ok := s.st.TrajectoryExtent(id); ok {
			jt.Object, jt.Records, jt.Start, jt.End = obj, n, first, last
		}
		for _, ep := range s.st.Episodes(id) {
			if ep.Kind == episode.Stop {
				jt.Stops++
			} else {
				jt.Moves++
			}
		}
		out = append(out, jt)
	}
	tr := summaryTrace(d, "trajectory-summaries", len(out), time.Since(start))
	s.recordSlow("/query/trajectories", r, time.Since(start), tr)
	body := map[string]any{"count": len(out), "trajectories": out}
	if tr != nil {
		body["trace"] = tr
	}
	writeJSON(w, http.StatusOK, body)
}

// handleObjects answers GET /query/objects: per-object counts (the Fig. 13
// aggregation), all objects or one (?object=).
func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	d := newDecoder(r)
	start := time.Now()
	objects := s.st.Objects()
	if filter := d.str("object"); filter != "" {
		objects = []string{filter}
	}
	counts := analytics.PerUserCounts(s.st, objects)
	tr := summaryTrace(d, "object-counts", len(counts), time.Since(start))
	s.recordSlow("/query/objects", r, time.Since(start), tr)
	body := map[string]any{"count": len(counts), "objects": counts}
	if tr != nil {
		body["trace"] = tr
	}
	writeJSON(w, http.StatusOK, body)
}

// summaryTrace builds the single-stage trace of a summary endpoint (the
// trajectory/object listings run one store walk, not an engine plan) when
// the request asked for one.
func summaryTrace(d *decoder, plan string, rows int, elapsed time.Duration) *query.Trace {
	if !d.boolVal("trace") {
		return nil
	}
	ns := elapsed.Nanoseconds()
	return &query.Trace{
		Kind: "summary", Plan: plan, Returned: rows, ExecNs: ns, TotalNs: ns,
		Stages: []query.TraceStage{{Name: "collect", Ns: ns, Rows: rows}},
	}
}

// handleHealthz answers GET /healthz with liveness and the store's running
// totals (all O(shards) reads, safe to poll). With a WithHealth probe
// attached, degradations — a stalled WAL flusher, a failed checkpoint —
// downgrade the answer to 503 with the reasons listed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stops, moves := s.st.EpisodeCounts()
	body := map[string]any{
		"status":       "ok",
		"records":      s.st.RecordCount(),
		"trajectories": s.st.TrajectoryCount(),
		"stops":        stops,
		"moves":        moves,
		"structured":   s.st.StructuredCount(),
	}
	status := http.StatusOK
	if reasons := s.evalHealth(); len(reasons) > 0 {
		status = http.StatusServiceUnavailable
		body["status"] = "degraded"
		body["reasons"] = reasons
	}
	writeJSON(w, status, body)
}

// handleStats answers GET /stats: the analytics-layer aggregates over the
// store's current content plus the engine's index state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stops, moves := s.st.EpisodeCounts()
	compression := analytics.Compression(s.st)
	writeJSON(w, http.StatusOK, map[string]any{
		"records":      s.st.RecordCount(),
		"trajectories": s.st.TrajectoryCount(),
		"stops":        stops,
		"moves":        moves,
		"structured":   s.st.StructuredCount(),
		"objects":      len(s.st.Objects()),
		"stop_time_by_category": analytics.AnnotationDistribution(
			s.st, query.DefaultInterpretation, core.AnnPOICategory).Shares(),
		"move_time_by_mode": analytics.ModeDistribution(s.st, query.DefaultInterpretation).Shares(),
		"compression": map[string]any{
			"gps_records":    compression.GPSRecords,
			"region_tuples":  compression.RegionTuples,
			"distinct_cells": compression.DistinctCells,
			"ratio":          compression.Ratio,
		},
		"index":   s.engine.IndexStats(),
		"metrics": obs.Default().Snapshot(),
	})
}
