// Queryserve: ask semantic questions of a live store, then serve them.
//
// The earlier examples end when ingestion ends; this one is about the read
// side. It streams two user-days into the pipeline, then uses the query
// engine to ask the paper's motivating kind of question — "who stopped at
// an item-sale place around lunchtime inside this part of town?" — showing
// the plan the engine picked for each query. Finally it mounts the same
// engine behind the HTTP serving layer and issues a few requests against
// it, which is exactly what `go run ./cmd/semitri-serve` serves standalone.
//
// Run with:
//
//	go run ./examples/queryserve
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/query"
	"semitri/internal/serve"
	"semitri/internal/workload"
)

func main() {
	// 1. Sources, pipeline, and — before ingestion — the query engine, so
	//    its indexes build incrementally from the stream's append path.
	city, err := workload.NewCity(workload.DefaultCityConfig(42, 4000))
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := semitri.New(semitri.Sources{
		Landuse: city.Landuse, Roads: city.Roads, POIs: city.POIs,
	}, semitri.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	engine := pipeline.QueryEngine()

	// 2. Stream two user-days in.
	ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(2, 1, 7))
	if err != nil {
		log.Fatal(err)
	}
	stream := pipeline.NewStream()
	for _, r := range ds.Records() {
		if _, err := stream.Add(r); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := stream.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d records for %d users\n\n", len(ds.Records()), len(ds.Objects))

	// 3. Typed queries, each a query.Query literal; the engine validates
	//    every one, plans it by picking the most selective index and
	//    verifies every candidate against the store.
	day := ds.Records()[0].Time.Truncate(24 * time.Hour)
	stop := episode.Stop
	centre := geo.RectAround(geo.Pt(5000, 5000), 3000)
	queries := []struct {
		label string
		q     query.Query
	}{
		{"stops at item-sale places", query.Query{
			Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: "item sale",
		}},
		{"...around lunchtime, in the city centre", query.Query{
			Kind: &stop, AnnKey: core.AnnPOICategory, AnnValue: "item sale",
			From: day.Add(11 * time.Hour), To: day.Add(15 * time.Hour),
			Window: &centre,
		}},
		{"everything user-001 did today", query.Query{
			ObjectID: ds.Objects[0], From: day, To: day.Add(24 * time.Hour),
		}},
		{"episodes near the map origin", query.Query{
			Near: &geo.Point{X: 2000, Y: 2000}, Radius: 1500,
		}},
	}
	for _, c := range queries {
		matches, plan, err := engine.ExecuteExplained(c.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  plan: %s\n  matches: %d\n", c.label, plan, len(matches))
		for i, m := range matches {
			if i == 3 {
				fmt.Printf("    ... %d more\n", len(matches)-i)
				break
			}
			fmt.Printf("    %s %s %s-%s  %s\n", m.Ref.TrajectoryID, m.Tuple.Kind,
				m.Tuple.TimeIn.Format("15:04"), m.Tuple.TimeOut.Format("15:04"),
				m.Tuple.Annotations.String())
		}
		fmt.Println()
	}

	// 4. A relational query: which objects had stop episodes within 200 m
	//    and one hour of another object's stop? The join planner builds the
	//    smaller side and probes the indexes for the other.
	pairs, jp, err := engine.ExecuteJoinExplained(query.Join{
		Left:  query.Query{Kind: &stop},
		Right: query.Query{Kind: &stop},
		On:    query.JoinOn{Within: time.Hour, MaxDistance: 200, DistinctObjects: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-location join\n  plan: %s\n  pairs: %d\n\n", jp, len(pairs))

	// 5. The same engine behind HTTP: what cmd/semitri-serve runs. The last
	//    request is the join above, written in the relational language.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.New(engine).Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	params := url.Values{}
	params.Set("kind", "stop")
	params.Set("ann", core.AnnPOICategory+"=item sale")
	params.Set("limit", "2")
	relational := url.Values{}
	relational.Set("q", "stops join stops on distance <= 200 and within 1h"+
		" and distinct objects group by object distinct objects top 5")
	for _, path := range []string{
		"/healthz",
		"/query/episodes?" + params.Encode(),
		"/stats",
		"/query/relational?" + relational.Encode(),
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 400))
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET %s -> %s\n%s...\n\n", path, resp.Status, body)
	}
}
