package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/obs"
	"semitri/internal/query"
	"semitri/internal/store"
)

// newLiveServer wires a store + engine + live dispatcher + metrics history
// behind the HTTP handler, the way cmd/semitri-serve does when subscriptions
// are on. The heartbeat is cranked down so lifecycle tests finish fast.
func newLiveServer(t *testing.T) (*httptest.Server, *store.Store, *query.Live) {
	t.Helper()
	st := store.New()
	engine := query.NewEngine(st)
	live := query.NewLive(st, 1<<12)
	t.Cleanup(live.Close)
	st.AttachIndex(engine, live.Tap())
	history := obs.NewHistory(obs.Default(), 64, time.Minute) // sampled on demand, no ticker
	t.Cleanup(history.Close)
	srv := httptest.NewServer(New(engine,
		WithLive(live), WithHistory(history), WithSSEHeartbeat(25*time.Millisecond)).Handler())
	t.Cleanup(srv.Close)
	return srv, st, live
}

func liveTuple(at time.Time, category string) *core.EpisodeTuple {
	center := geo.Pt(100, 100)
	ep := &episode.Episode{Kind: episode.Stop, Start: at, End: at.Add(time.Hour),
		Center: center, Bounds: geo.RectAround(center, 30)}
	tp := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: at, TimeOut: at.Add(time.Hour), Episode: ep}
	tp.Annotations.Add(core.Annotation{Key: core.AnnPOICategory, Value: category, Confidence: 0.9, Source: "test"})
	return tp
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	Data  map[string]any
}

// sseReader incrementally parses an SSE response body.
type sseReader struct {
	t  *testing.T
	sc *bufio.Scanner
}

func newSSEReader(t *testing.T, body io.Reader) *sseReader {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseReader{t: t, sc: sc}
}

// next reads frames until one arrives or the stream ends (ok=false).
func (r *sseReader) next() (sseFrame, bool) {
	var f sseFrame
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			f.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.Data); err != nil {
				r.t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		case line == "":
			if f.Event != "" {
				return f, true
			}
		}
	}
	return sseFrame{}, false
}

// openSSE starts a cancellable SSE request and fails the test on non-200.
func openSSE(t *testing.T, url string) (*sseReader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		cancel()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return newSSEReader(t, resp.Body), cancel
}

// wantBadRequest asserts that GET url answers 400 with an {"error": ...}
// body. The status is checked before the body is read, so a request that
// wrongly opens an event stream fails instead of hanging.
func wantBadRequest(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET %s: status %d, want 400", url, resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("GET %s: body %s, want {\"error\": ...}", url, body)
	}
}

func TestSubscribeRejectsMalformedQuery(t *testing.T) {
	srv, _, _ := newLiveServer(t)
	for _, path := range []string{
		"/subscribe", // missing q entirely
		"/subscribe?q=" + escape("bogus grammar here"),
		"/subscribe?q=" + escape("stops as s join moves as m on same_object"), // joins can't stand
		"/subscribe?q=" + escape("stops group by ann.poi_category count"),     // aggregates can't stand
		"/subscribe?q=" + escape("stops limit 5"),                             // limit is meaningless live
		"/subscribe?q=stops&buffer=abc",
		"/subscribe?q=stops&buffer=65537",               // one past the ring cap
		"/subscribe?q=stops&buffer=4611686018427387904", // would not even fit makeslice
		"/subscribe?q=" + escape("stops where near(1, 1, NaN)"),
		"/subscribe?q=" + escape("stops where window(0, 0, Inf, 1)"),
	} {
		wantBadRequest(t, srv.URL+path)
	}
}

// TestSSEBufferCap: ?buffer=N above the ring cap is refused on both SSE
// endpoints before any ring is allocated, and the cap itself is accepted.
func TestSSEBufferCap(t *testing.T) {
	srv, _, _ := newLiveServer(t)
	wantBadRequest(t, srv.URL+"/metrics/stream?buffer=65537")
	wantBadRequest(t, srv.URL+"/metrics/stream?buffer=4611686018427387904")

	r, cancel := openSSE(t, srv.URL+"/subscribe?q=stops&buffer=65536")
	defer cancel()
	if f, ok := r.next(); !ok || f.Event != "subscribed" || f.Data["buffer"] != float64(65536) {
		t.Fatalf("first frame = %+v, want subscribed with buffer 65536", f)
	}
	m, cancelMetrics := openSSE(t, srv.URL+"/metrics/stream?buffer=65536")
	defer cancelMetrics()
	if f, ok := m.next(); !ok || f.Event != "tick" {
		t.Fatalf("first frame = %+v, want tick", f)
	}
}

func escape(q string) string { return strings.ReplaceAll(q, " ", "%20") }

func TestSubscribeStreamsMatches(t *testing.T) {
	srv, st, live := newLiveServer(t)
	r, cancel := openSSE(t, srv.URL+"/subscribe?q="+escape("stops where ann.poi_category = park"))
	defer cancel()

	f, ok := r.next()
	if !ok || f.Event != "subscribed" {
		t.Fatalf("first frame = %+v ok=%v, want subscribed", f, ok)
	}
	// The subscription is registered before the stream starts, so anything
	// ingested after the subscribed frame must be evaluated.
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	if err := st.AppendStructuredTuples("u1-T0", "u1", query.DefaultInterpretation,
		liveTuple(at, "shop"), liveTuple(at.Add(2*time.Hour), "park")); err != nil {
		t.Fatal(err)
	}
	live.Sync()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no match frame within 5s")
		default:
		}
		f, ok = r.next()
		if !ok {
			t.Fatal("stream ended before a match arrived")
		}
		if f.Event == "heartbeat" {
			continue
		}
		break
	}
	if f.Event != "match" {
		t.Fatalf("frame = %+v, want match", f)
	}
	m, _ := f.Data["match"].(map[string]any)
	if m == nil || m["trajectory"] != "u1-T0" || m["index"] != float64(1) {
		t.Fatalf("match payload = %v, want trajectory u1-T0 index 1", f.Data)
	}
}

func TestSubscribeDisconnectFreesSubscription(t *testing.T) {
	srv, _, live := newLiveServer(t)
	base := live.BusStats().Subscribers // the dispatcher's own central sub
	_, cancel := openSSE(t, srv.URL+"/subscribe?q=stops")
	waitFor(t, "subscription registered", func() bool {
		return live.StandingCount() == 1 && live.BusStats().Subscribers == base
	})
	cancel() // client disconnects mid-stream
	waitFor(t, "subscription released", func() bool {
		return live.StandingCount() == 0
	})
}

// TestSubscribeSlowConsumerDropsOldest pushes a burst into a 2-slot delivery
// ring while the client reads nothing. Each notification is padded so the
// burst dwarfs any socket buffering: the handler's write must block, the
// dispatcher keeps publishing without ever blocking ingestion, and the ring
// sheds oldest-first. The heartbeat accounting must then add up exactly:
// delivered + dropped == everything the subscription received.
func TestSubscribeSlowConsumerDropsOldest(t *testing.T) {
	srv, st, live := newLiveServer(t)
	r, cancel := openSSE(t, srv.URL+"/subscribe?q="+escape("stops where ann.poi_category = park")+"&buffer=2")
	defer cancel()
	if f, ok := r.next(); !ok || f.Event != "subscribed" {
		t.Fatalf("first frame = %+v, want subscribed", f)
	}

	// ~24 MB of frames against a 2-slot ring and an unread TCP connection:
	// far past what loopback buffering can absorb, so drops are certain.
	at := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	filler := core.Annotation{Key: "filler", Value: strings.Repeat("x", 24<<10), Confidence: 1, Source: "test"}
	const burst = 1024
	for i := 0; i < burst; i++ {
		tp := liveTuple(at, "park")
		tp.Annotations.Add(filler)
		if err := st.AppendStructuredTuples(fmt.Sprintf("u1-T%d", i), "u1",
			query.DefaultInterpretation, tp); err != nil {
			t.Fatal(err)
		}
	}
	live.Sync()
	if live.EvalDrops() != 0 {
		t.Fatalf("central ring dropped (%d); sized to hold the whole burst", live.EvalDrops())
	}

	// Now drain the stream; heartbeats carry the subscription's accounting.
	// Frames are FIFO, so by the time the client reads a heartbeat it has
	// read every match written before it. The publisher is quiescent (Sync
	// above), so the accounting converges: keep reading until a heartbeat
	// shows delivered + drops covering the whole burst — an earlier
	// heartbeat may have been written mid-burst with a momentarily drained
	// ring, so lag alone is not a completion signal.
	var matches, drops, received int64
	deadline := time.Now().Add(20 * time.Second)
	for received != burst && time.Now().Before(deadline) {
		f, ok := r.next()
		if !ok {
			t.Fatal("stream ended early")
		}
		if f.Event == "match" {
			matches++
			continue
		}
		if f.Event != "heartbeat" {
			t.Fatalf("unexpected frame %+v", f)
		}
		delivered := int64(f.Data["delivered"].(float64))
		drops = int64(f.Data["drops"].(float64))
		if delivered != matches {
			t.Fatalf("heartbeat says %d delivered, client read %d (frames are FIFO)", delivered, matches)
		}
		received = delivered + drops
	}
	if received != burst {
		t.Fatalf("delivered+drops = %d, want the full burst %d", received, burst)
	}
	if drops == 0 {
		t.Fatalf("no drops after a %d-event burst into a 2-slot ring", burst)
	}
	if matches == 0 {
		t.Fatal("drop-oldest shed everything; the newest notifications should survive")
	}
}

func TestMetricsStreamTicksAndHistory(t *testing.T) {
	srv, _, _ := newLiveServer(t)
	r, cancel := openSSE(t, srv.URL+"/metrics/stream")
	defer cancel()
	f, ok := r.next()
	if !ok || f.Event != "tick" {
		t.Fatalf("first frame = %+v, want tick", f)
	}
	values, _ := f.Data["values"].(map[string]any)
	if len(values) == 0 {
		t.Fatal("tick carried no metric values")
	}
	if _, found := values["semitri_live_standing_queries"]; !found {
		t.Fatalf("tick missing semitri_live_standing_queries: %v", keys(values))
	}
	cancel()

	// The connect-time SampleNow seeded history: the listing and per-name
	// windows must answer.
	listing := getJSON(t, srv, "/metrics/history", http.StatusOK)
	names, _ := listing["names"].([]any)
	if len(names) == 0 {
		t.Fatal("history listing is empty")
	}
	one := getJSON(t, srv, "/metrics/history?name=semitri_live_standing_queries&window=1h", http.StatusOK)
	if int(one["count"].(float64)) < 1 {
		t.Fatalf("history window empty: %v", one)
	}
	getJSON(t, srv, "/metrics/history?name=no_such_metric", http.StatusNotFound)
	getJSON(t, srv, "/metrics/history?window=bogus", http.StatusBadRequest)
}

func TestSSEUnavailableWithoutLive(t *testing.T) {
	srv, _ := newTestServer(t) // no WithLive / WithHistory
	for _, path := range []string{"/subscribe?q=stops", "/metrics/stream", "/metrics/history"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s without live wiring: status %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestDashServesEmbeddedPage(t *testing.T) {
	srv, _, _ := newLiveServer(t)
	resp, err := http.Get(srv.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	page := string(body)
	for _, want := range []string{"<!DOCTYPE html>", "/metrics/stream", "/healthz", "/debug/queries", "EventSource"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard page missing %q", want)
		}
	}
	// Zero-dependency: no external scripts, stylesheets or fonts.
	for _, banned := range []string{"src=\"http", "href=\"http", "@import", "cdn."} {
		if strings.Contains(page, banned) {
			t.Fatalf("dashboard page references an external asset (%q)", banned)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
