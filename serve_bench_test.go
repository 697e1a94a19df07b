package semitri_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"semitri/internal/core"
	"semitri/internal/poi"
	"semitri/internal/serve"
)

// BenchmarkServeEpisodes measures the HTTP front door's whole request path
// for GET /query/episodes — decode, plan, execute and encode the rows —
// through serve.New(engine).Handler().ServeHTTP into a ResponseRecorder, on
// the query benchmarks' fixture (query_bench_test.go). The two shapes are
// serve_mixed's commonest statement classes: lookup is one object's whole
// timeline (?object=, uncapped), ann_window is stops by POI category in a
// 4-hour window, capped at 50 rows. B/row is the mean body size per row.
func BenchmarkServeEpisodes(b *testing.B) {
	engine, _ := queryBenchSetup(b)
	h := serve.New(engine).Handler()
	var lookups, annWindows []string
	for _, obj := range queryBenchObjs {
		lookups = append(lookups, "/query/episodes?"+url.Values{"object": {obj}}.Encode())
	}
	for i, cat := range poi.AllCategories {
		from := queryBenchDay.Add(time.Duration(8+2*i) * time.Hour)
		annWindows = append(annWindows, "/query/episodes?"+url.Values{
			"kind":  {"stop"},
			"ann":   {core.AnnPOICategory + "=" + cat.String()},
			"from":  {from.Format(time.RFC3339)},
			"to":    {from.Add(4 * time.Hour).Format(time.RFC3339)},
			"limit": {"50"},
		}.Encode())
	}
	for _, c := range []struct {
		name string
		urls []string
	}{{"lookup", lookups}, {"ann_window", annWindows}} {
		b.Run(c.name, func(b *testing.B) {
			reqs := make([]*http.Request, len(c.urls))
			for i, u := range c.urls {
				reqs[i] = httptest.NewRequest(http.MethodGet, u, nil)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, reqs[i%len(reqs)])
				if w.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", c.urls[i%len(reqs)], w.Code, w.Body)
				}
			}
			bodyBytes, rows := 0, 0
			for _, r := range reqs {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				var body struct{ Count int }
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					b.Fatal(err)
				}
				bodyBytes, rows = bodyBytes+w.Body.Len(), rows+body.Count
			}
			if rows == 0 {
				b.Fatalf("%s: no rows", c.name)
			}
			b.ReportMetric(float64(bodyBytes)/float64(rows), "B/row")
		})
	}
}
