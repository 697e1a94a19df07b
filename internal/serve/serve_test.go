package serve

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"semitri"
	"semitri/internal/episode"
	"semitri/internal/query"
	"semitri/internal/workload"
)

// newTestServer ingests one person-day through the streaming pipeline and
// serves it — the exact wiring of cmd/semitri-serve.
func newTestServer(t *testing.T) (*httptest.Server, *query.Engine) {
	t.Helper()
	city, err := workload.NewCity(workload.DefaultCityConfig(7, 2500))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(2, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, semitri.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	engine := pipeline.QueryEngine()
	sp := pipeline.NewStream()
	for _, r := range ds.Records() {
		if _, err := sp.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(engine).Handler())
	t.Cleanup(srv.Close)
	return srv, engine
}

// getJSON fetches a path and decodes the JSON body.
func getJSON(t *testing.T, srv *httptest.Server, path string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("GET %s: empty JSON body", path)
	}
	return body
}

func TestEndpoints(t *testing.T) {
	srv, engine := newTestServer(t)

	health := getJSON(t, srv, "/healthz", http.StatusOK)
	if health["status"] != "ok" || health["records"].(float64) == 0 {
		t.Fatalf("healthz = %v", health)
	}

	all := getJSON(t, srv, "/query/episodes", http.StatusOK)
	if all["count"].(float64) == 0 {
		t.Fatalf("unfiltered episode query found nothing: %v", all)
	}
	if all["plan"].(string) == "" || all["path"].(string) != "full-scan" {
		t.Fatalf("plan missing: %v %v", all["plan"], all["path"])
	}

	stops := getJSON(t, srv, "/query/episodes?kind=stop&limit=5", http.StatusOK)
	matches := stops["matches"].([]any)
	if len(matches) == 0 || len(matches) > 5 {
		t.Fatalf("stop query matches = %d", len(matches))
	}
	first := matches[0].(map[string]any)
	if first["kind"] != "stop" || first["trajectory"] == "" {
		t.Fatalf("match shape: %v", first)
	}

	// An annotation + time-window + spatial query exercising parseQuery end
	// to end; correctness of the result set is the engine tests' job, here
	// the parameters must round-trip.
	params := url.Values{}
	params.Set("ann", "poi_category=item sale")
	params.Set("from", time.Date(2010, 3, 15, 0, 0, 0, 0, time.UTC).Format(time.RFC3339))
	params.Set("to", time.Date(2010, 3, 16, 0, 0, 0, 0, time.UTC).Format(time.RFC3339))
	params.Set("minx", "0")
	params.Set("miny", "0")
	params.Set("maxx", "10000")
	params.Set("maxy", "10000")
	annQ := getJSON(t, srv, "/query/episodes?"+params.Encode(), http.StatusOK)
	if annQ["path"].(string) != string(query.PathAnnotation) {
		t.Fatalf("annotation query planned %v", annQ["path"])
	}

	objs := getJSON(t, srv, "/query/objects", http.StatusOK)
	if objs["count"].(float64) < 2 {
		t.Fatalf("objects = %v", objs["count"])
	}
	oneObj := getJSON(t, srv, "/query/objects?object=user-001", http.StatusOK)
	if oneObj["count"].(float64) != 1 {
		t.Fatalf("filtered objects = %v", oneObj["count"])
	}

	trajs := getJSON(t, srv, "/query/trajectories", http.StatusOK)
	if trajs["count"].(float64) == 0 {
		t.Fatalf("trajectories = %v", trajs)
	}
	jt := trajs["trajectories"].([]any)[0].(map[string]any)
	if jt["id"] == "" || jt["records"].(float64) == 0 || len(jt["interpretations"].([]any)) == 0 {
		t.Fatalf("trajectory shape: %v", jt)
	}

	stats := getJSON(t, srv, "/stats", http.StatusOK)
	if stats["records"].(float64) == 0 || stats["index"] == nil {
		t.Fatalf("stats = %v", stats)
	}
	idx := stats["index"].(map[string]any)
	if idx["IndexedTuples"].(float64) == 0 {
		t.Fatalf("index stats = %v", idx)
	}
	if engine.IndexStats().IndexedTuples == 0 {
		t.Fatal("engine index empty")
	}
}

// TestRelationalEndpoint drives /query/relational through every statement
// shape and checks the response against the same statement executed directly
// on the engine.
func TestRelationalEndpoint(t *testing.T) {
	srv, engine := newTestServer(t)
	rel := func(stmt string) string {
		v := url.Values{}
		v.Set("q", stmt)
		return "/query/relational?" + v.Encode()
	}

	single := getJSON(t, srv, rel("stops where ann.poi_category = \"item sale\" limit 4"), http.StatusOK)
	if single["plan"].(string) == "" || single["query"].(string) == "" {
		t.Fatalf("plan/query echo missing: %v", single)
	}
	if ms := single["matches"].([]any); len(ms) == 0 || len(ms) > 4 {
		t.Fatalf("single-table statement matches = %d", len(ms))
	} else if ms[0].(map[string]any)["kind"] != "stop" {
		t.Fatalf("match shape: %v", ms[0])
	}

	coloc := "stops join stops on distance <= 200 and within 1h and distinct objects"
	pairs := getJSON(t, srv, rel(coloc), http.StatusOK)
	plan := pairs["plan"].(string)
	if !strings.Contains(plan, "build=") || !strings.Contains(plan, "probe=") {
		t.Fatalf("join plan not echoed: %q", plan)
	}
	stop := episode.Stop
	want, err := engine.ExecuteJoin(query.Join{
		Left:  query.Query{Kind: &stop},
		Right: query.Query{Kind: &stop},
		On:    query.JoinOn{MaxDistance: 200, Within: time.Hour, DistinctObjects: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := pairs["pairs"].([]any) // present (possibly empty) — the join shape
	if len(got) != len(want) {
		t.Fatalf("endpoint returned %d pairs, engine %d", len(got), len(want))
	}
	for i, raw := range got {
		p := raw.(map[string]any)
		l := p["left"].(map[string]any)
		r := p["right"].(map[string]any)
		if l["object"] != want[i].Left.Ref.ObjectID || r["object"] != want[i].Right.Ref.ObjectID {
			t.Fatalf("pair %d: endpoint %v/%v, engine %v/%v",
				i, l["object"], r["object"], want[i].Left.Ref.ObjectID, want[i].Right.Ref.ObjectID)
		}
	}

	groups := getJSON(t, srv, rel(coloc+" group by object distinct objects top 3"), http.StatusOK)
	gs := groups["groups"].([]any)
	if len(gs) > 3 {
		t.Fatalf("top 3 returned %d groups", len(gs))
	}
	if len(want) > 0 && len(gs) == 0 {
		t.Fatal("join found pairs but the aggregate found no groups")
	}
	for _, raw := range gs {
		g := raw.(map[string]any)
		if g["key"] == "" || g["value"].(float64) <= 0 {
			t.Fatalf("group shape: %v", g)
		}
	}
}

func TestEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{
		"/query/relational", // missing q
		"/query/relational?q=" + url.QueryEscape("stops join stops on gravity"),
		"/query/relational?q=" + url.QueryEscape("stops join stops on same object"),
		"/query/episodes?kind=hover",
		"/query/episodes?from=yesterday",
		"/query/episodes?ann=poi_category",
		"/query/episodes?minx=a&miny=0&maxx=1&maxy=1",
		"/query/episodes?limit=-3",
		"/query/episodes?nearx=1&neary=1",            // radius missing
		"/query/episodes?miny=0&maxx=1&maxy=1",       // partial window
		"/query/episodes?radius=2000",                // centre missing
		"/query/episodes?nearx=1&neary=1&radius=-50", // negative radius
		"/query/episodes?nearx=1&neary=1&radius=NaN",
		"/query/episodes?nearx=NaN&neary=1&radius=50",
		"/query/episodes?nearx=1&neary=1&radius=%2BInf",
		"/query/episodes?minx=-Inf&miny=0&maxx=1&maxy=1",
		"/query/relational?q=" + url.QueryEscape("stops where near(1, 1, NaN)"),
		"/query/relational?q=" + url.QueryEscape("stops join stops on distance <= NaN"),
		"/query/relational?q=" + url.QueryEscape("stops join stops on distance <= Inf"),
	} {
		body := getJSON(t, srv, path, http.StatusBadRequest)
		if body["error"] == "" {
			t.Fatalf("%s: no error message", path)
		}
	}
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d", resp.StatusCode)
	}
}

// TestHTTPServerDropsHalfHeader: the front door's server sets the header
// deadline and the idle timeout, and no write timeout (SSE streams are
// long-lived), and a client that sends half a request header is
// disconnected once the header deadline passes, not held for ever. The
// deadline is shortened for the test; its effect is what is under test.
func TestHTTPServerDropsHalfHeader(t *testing.T) {
	srv := NewHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout ||
		srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("server timeouts: header %v, idle %v, read %v, write %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: semitri\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half a header still holds the connection: %v", err)
	}
}
