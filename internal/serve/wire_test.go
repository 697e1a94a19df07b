package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/store"
)

// wantBody fetches path through the handler and checks that the body is
// json.Marshal(want) plus a newline — compact, top-level keys in sorted
// order — and that Content-Length declares its size. A "trace" in the
// response is spliced into want first: its timings differ run to run, so
// only its place in the layout and its decodability are compared.
func wantBody(t *testing.T, h http.Handler, path string, want map[string]any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("GET %s: Content-Length %q, body %d bytes", path, cl, w.Body.Len())
	}
	if strings.Contains(path, "trace=1") {
		var parts map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &parts); err != nil {
			t.Fatal(err)
		}
		var tr query.Trace
		if err := json.Unmarshal(parts["trace"], &tr); err != nil || tr.Plan == "" {
			t.Fatalf("GET %s: trace %s does not decode (%v)", path, parts["trace"], err)
		}
		want["trace"] = parts["trace"]
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Body.String(); got != string(b)+"\n" {
		t.Fatalf("GET %s:\nhandler   %.600s\nreference %.600s", path, got, b)
	}
}

// TestBodiesAreCompactJSON: /query/episodes and every shape of
// /query/relational (matches, pairs, groups; with and without a trace)
// answer the body the handlers have always built, in compact form.
func TestBodiesAreCompactJSON(t *testing.T) {
	srv, engine := newTestServer(t)
	h := srv.Config.Handler
	for _, path := range []string{
		"/query/episodes",
		"/query/episodes?object=user-001",
		"/query/episodes?kind=stop&limit=5&trace=1",
		"/query/episodes?ann=poi_category=item+sale&minx=0&miny=0&maxx=10000&maxy=10000",
		"/query/episodes?object=nobody",
	} {
		q, err := decodeQuery(newDecoder(httptest.NewRequest(http.MethodGet, path, nil)))
		if err != nil {
			t.Fatal(err)
		}
		ms, plan, err := engine.ExecuteExplained(q)
		if err != nil {
			t.Fatal(err)
		}
		matches := make([]jsonMatch, len(ms))
		for i, m := range ms {
			matches[i] = toJSONMatch(m)
		}
		wantBody(t, h, path, map[string]any{
			"count": len(ms), "plan": plan.String(), "path": plan.Path, "matches": matches,
		})
	}
	coloc := "stops join stops on distance <= 200 and within 1h and distinct objects"
	for _, src := range []string{
		`stops where ann.poi_category = "item sale" limit 4`,
		"moves where object = user-001",
		"stops where object = nobody",
		coloc,
		coloc + " group by object distinct objects top 3",
		"stops group by kind count",
	} {
		res, err := lang.Run(engine, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		body := map[string]any{"query": src, "plan": res.Plan}
		switch {
		case res.Groups != nil:
			body["count"], body["groups"] = len(res.Groups), res.Groups
		case res.Pairs != nil:
			pairs := make([]jsonPair, len(res.Pairs))
			for i, p := range res.Pairs {
				pairs[i] = jsonPair{Left: toJSONMatch(p.Left), Right: toJSONMatch(p.Right)}
			}
			body["count"], body["pairs"] = len(pairs), pairs
		default:
			matches := make([]jsonMatch, len(res.Matches))
			for i, m := range res.Matches {
				matches[i] = toJSONMatch(m)
			}
			body["count"], body["matches"] = len(matches), matches
		}
		path := "/query/relational?q=" + url.QueryEscape(src)
		wantBody(t, h, path, body)
		delete(body, "trace")
		wantBody(t, h, path+"&trace=1", body)
	}
}

// TestNotificationBody: a match or an update carries the row under "match";
// an unmatch carries only the ref — the shape the live loop of /subscribe
// sends and the shutdown flush now sends too.
func TestNotificationBody(t *testing.T) {
	m := query.Match{
		Ref:   store.TupleRef{TrajectoryID: "u1-T0", ObjectID: "u1", Interpretation: query.DefaultInterpretation, Index: 3},
		Tuple: *liveTuple(time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC), "park"),
	}
	for _, kind := range []string{query.NotifyMatch, query.NotifyUpdate, query.NotifyUnmatch} {
		got, err := json.Marshal(notificationBody(query.Notification{Kind: kind, Match: m}))
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if kind == query.NotifyUnmatch {
			want, err = json.Marshal(map[string]any{"kind": kind, "trajectory": "u1-T0", "object": "u1",
				"interpretation": query.DefaultInterpretation, "index": 3})
		} else {
			want, err = json.Marshal(map[string]any{"kind": kind, "match": toJSONMatch(m)})
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s frame:\n  got  %s\n  want %s", kind, got, want)
		}
	}
}

// TestEncodeFailureAnswers500: a stored row encoding/json refuses — a NaN
// confidence, a year past 9999 — makes the query answer 500 with an
// {"error": ...} body, never 200 with an empty one.
func TestEncodeFailureAnswers500(t *testing.T) {
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	nan := liveTuple(at, "park")
	nan.Annotations.Add(core.Annotation{Key: "score", Value: "x", Confidence: math.NaN()})
	far := liveTuple(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), "park")
	for name, tp := range map[string]*core.EpisodeTuple{"nan": nan, "year10000": far} {
		t.Run(name, func(t *testing.T) {
			st := store.New()
			engine := query.NewEngine(st)
			st.AttachIndex(engine)
			if err := st.AppendStructuredTuples("o-T0", "o", query.DefaultInterpretation, tp); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(New(engine).Handler())
			defer srv.Close()
			for _, path := range []string{
				"/query/episodes?object=o",
				"/query/relational?q=" + url.QueryEscape("stops where object = o"),
			} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var e map[string]string
				if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || e["error"] == "" {
					t.Fatalf("GET %s: status %d body %q, want 500 with an error", path, resp.StatusCode, body)
				}
			}
		})
	}
}

// FuzzEpisodesQuery drives GET /query/episodes with arbitrary query strings
// over a small live store. Invariant: the front door answers 200 with a
// {"count", "matches", ...} body or 400 with an {"error": ...} body, always
// compact JSON of the declared Content-Length; it never panics and never
// answers 500, since every stored row encodes.
func FuzzEpisodesQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"object=u1",
		"kind=stop&limit=5&trace=1",
		"ann=poi_category=park&from=2024-05-01T00:00:00Z&to=2024-05-02T00:00:00Z",
		"minx=0&miny=0&maxx=1000&maxy=1000",
		"nearx=100&neary=100&radius=50",
		"annkey=poi_category&annvalue=shop&interpretation=merged",
		"kind=hover",
		"limit=-3",
		"nearx=1&neary=1&radius=NaN",
		"minx=-Inf&miny=0&maxx=1&maxy=1",
		"from=yesterday",
		"trajectory=u1-T0&kind=move",
	} {
		f.Add(seed)
	}
	st := store.New()
	engine := query.NewEngine(st)
	st.AttachIndex(engine)
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	if err := st.AppendStructuredTuples("u1-T0", "u1", query.DefaultInterpretation,
		liveTuple(at, "shop"), liveTuple(at.Add(2*time.Hour), "park")); err != nil {
		f.Fatal(err)
	}
	h := New(engine).Handler()
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := httptest.NewRequest(http.MethodGet, "/query/episodes", nil)
		r.URL.RawQuery = rawQuery
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("?%s: Content-Length %q, body %d bytes", rawQuery, cl, w.Body.Len())
		}
		body := w.Body.Bytes()
		if len(body) == 0 || body[len(body)-1] != '\n' || strings.Contains(string(body[:len(body)-1]), "\n") {
			t.Fatalf("?%s: body is not one line of JSON: %q", rawQuery, body)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("?%s: body does not decode: %v", rawQuery, err)
		}
		switch w.Code {
		case http.StatusOK:
			if got["count"] == nil || got["matches"] == nil {
				t.Fatalf("?%s: 200 without count and matches: %s", rawQuery, body)
			}
		case http.StatusBadRequest:
			if got["error"] == nil {
				t.Fatalf("?%s: 400 without an error: %s", rawQuery, body)
			}
		default:
			t.Fatalf("?%s: status %d: %s", rawQuery, w.Code, body)
		}
	})
}
