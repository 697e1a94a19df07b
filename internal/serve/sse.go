package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"semitri/internal/obs"
	"semitri/internal/query"
	"semitri/internal/query/lang"
)

// DefaultSSEHeartbeat is the idle-connection heartbeat cadence of the SSE
// endpoints (override with WithSSEHeartbeat). Heartbeats keep intermediaries
// from timing the stream out and echo the subscription's drop/lag counters
// so a client can tell when it is falling behind.
const DefaultSSEHeartbeat = 10 * time.Second

// defaultSubscribeBuffer is the per-connection notification ring size of
// /subscribe and /metrics/stream (override per request with ?buffer=N).
// Drop-oldest: a slow client loses old events, never stalls ingestion.
const defaultSubscribeBuffer = 256

// maxSubscribeBuffer caps ?buffer=N: the ring is allocated in full when the
// subscription opens, so an unchecked N lets one GET exhaust memory.
const maxSubscribeBuffer = 1 << 16

// sseWriter wraps one Server-Sent-Events response stream.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// startSSE upgrades the response to an event stream, or reports that the
// transport cannot stream.
func startSSE(w http.ResponseWriter) (*sseWriter, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("streaming unsupported by this connection")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, nil
}

// event writes one SSE frame (`event: name` + JSON `data:` line) and
// flushes. A write error means the client is gone.
func (s *sseWriter) event(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// sseBuffer reads the optional ?buffer= ring-size parameter.
func sseBuffer(d *decoder) (int, error) {
	buffer := d.intVal("buffer")
	if err := d.Err(); err != nil {
		return 0, err
	}
	if buffer > maxSubscribeBuffer {
		return 0, fmt.Errorf("buffer %d exceeds the maximum %d", buffer, maxSubscribeBuffer)
	}
	if buffer <= 0 {
		buffer = defaultSubscribeBuffer
	}
	return buffer, nil
}

// heartbeatBody is the payload of the periodic heartbeat event on both SSE
// endpoints: delivery accounting for this subscription, so a client can see
// backpressure (drops, lag) without a second request.
type heartbeatBody struct {
	UnixNano  int64 `json:"unix_nano"`
	Delivered int64 `json:"delivered"`
	Drops     int64 `json:"drops"`
	Lag       int   `json:"lag"`
	// Matched is the standing query's current matched-set size (absent on
	// /metrics/stream).
	Matched *int `json:"matched,omitempty"`
}

// notificationBody is the wire form of one standing-query notification, the
// one encoder of both the live loop and the shutdown flush of /subscribe: an
// unmatch carries only the ref that stopped matching, a match or an update
// carries the row.
func notificationBody(n query.Notification) map[string]any {
	body := map[string]any{"kind": n.Kind}
	if n.Kind == query.NotifyUnmatch {
		body["trajectory"] = n.Match.Ref.TrajectoryID
		body["object"] = n.Match.Ref.ObjectID
		body["interpretation"] = n.Match.Ref.Interpretation
		body["index"] = n.Match.Ref.Index
	} else {
		body["match"] = toJSONMatch(n.Match)
	}
	return body
}

// handleSubscribe answers GET /subscribe?q=<statement>: the statement —
// same grammar as /query/relational, single-table subset — is compiled into
// a standing query and its notifications are streamed as SSE events:
//
//	event: subscribed   {"query": ..., "buffer": N}       (once, first)
//	event: match        {"kind": "match", "match": jsonMatch}
//	event: update       {"kind": "update", "match": jsonMatch}
//	event: unmatch      {"kind": "unmatch", ref fields}
//	event: heartbeat    delivery accounting (drops, lag, matched size)
//
// The subscription evaluates store events only (never the indexes) and is
// released when the client disconnects. ?buffer=N sizes the per-connection
// ring (drop-oldest under backpressure).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("live subscriptions are not enabled"))
		return
	}
	d := newDecoder(r)
	src := d.str("q")
	buffer, err := sseBuffer(d)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if src == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing q parameter (a single-table statement)"))
		return
	}
	q, err := lang.ParseQuery(src)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	standing, err := s.live.Register(q, buffer)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer standing.Close()
	stream, err := startSSE(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := stream.event("subscribed", map[string]any{"query": src, "buffer": buffer}); err != nil {
		return
	}
	sub := standing.Sub()
	ticker := time.NewTicker(s.heartbeat)
	defer ticker.Stop()
	var delivered int64
	var buf []query.Notification
	emitHeartbeat := func() error {
		matched := standing.MatchedCount()
		return stream.event("heartbeat", heartbeatBody{
			UnixNano:  time.Now().UnixNano(),
			Delivered: delivered,
			Drops:     standing.Drops(),
			Lag:       standing.Lag(),
			Matched:   &matched,
		})
	}
	for {
		buf = sub.Drain(buf[:0])
		for _, n := range buf {
			if err := stream.event(n.Kind, notificationBody(n)); err != nil {
				return // client gone; defer releases the subscription
			}
			delivered++
		}
		select {
		case <-sub.C():
		case <-ticker.C:
			if err := emitHeartbeat(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-sub.Done():
			// Dispatcher shut down (server closing): flush what remains.
			for _, n := range sub.Drain(buf[:0]) {
				_ = stream.event(n.Kind, notificationBody(n))
			}
			_ = emitHeartbeat()
			return
		}
	}
}

// handleMetricsStream answers GET /metrics/stream: every sampler tick of the
// metrics history as an SSE event (event: tick, data: {unix_nano, values}),
// plus the same heartbeat accounting as /subscribe. One fresh sample is
// taken and delivered immediately on connect so clients render without
// waiting out the sampler interval.
func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("metrics history is not enabled"))
		return
	}
	d := newDecoder(r)
	buffer, err := sseBuffer(d)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sub := s.history.Subscribe(buffer)
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("metrics history is closed"))
		return
	}
	defer sub.Close()
	stream, err := startSSE(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if err := stream.event("tick", s.history.SampleNow()); err != nil {
		return
	}
	ticker := time.NewTicker(s.heartbeat)
	defer ticker.Stop()
	var delivered int64
	var buf []obs.MetricsTick
	for {
		buf = sub.Drain(buf[:0])
		for _, tick := range buf {
			if err := stream.event("tick", tick); err != nil {
				return
			}
			delivered++
		}
		select {
		case <-sub.C():
		case <-ticker.C:
			hb := heartbeatBody{
				UnixNano:  time.Now().UnixNano(),
				Delivered: delivered,
				Drops:     sub.Drops(),
				Lag:       sub.Lag(),
			}
			if err := stream.event("heartbeat", hb); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-sub.Done():
			return
		}
	}
}

// handleMetricsHistory answers GET /metrics/history?name=...&window=...:
// the in-process ring time-series of one metric id (the ids /metrics
// exposes; histograms appear as <name>_count and <name>_sum). window is a
// Go duration ("10m") bounding the trailing span; omitted or 0 returns
// everything retained. Without ?name= the response lists the known ids.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("metrics history is not enabled"))
		return
	}
	d := newDecoder(r)
	name := d.str("name")
	windowStr := d.str("window")
	if err := d.Err(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var window time.Duration
	if windowStr != "" {
		var err error
		if window, err = time.ParseDuration(windowStr); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad window %q: %w", windowStr, err))
			return
		}
	}
	if name == "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"interval_ns": s.history.Interval().Nanoseconds(),
			"names":       s.history.Names(),
		})
		return
	}
	samples, ok := s.history.Window(name, window)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no history for metric %q (GET /metrics/history lists known names)", name))
		return
	}
	if samples == nil {
		samples = []obs.Sample{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":        name,
		"interval_ns": s.history.Interval().Nanoseconds(),
		"count":       len(samples),
		"samples":     samples,
	})
}
