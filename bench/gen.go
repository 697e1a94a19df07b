package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"semitri"
	"semitri/internal/core"
	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/gps"
	"semitri/internal/query"
	"semitri/internal/query/lang"
	"semitri/internal/store"
	"semitri/internal/workload"
)

// citySeed is fixed: the city is the 3rd-party map the system is deployed
// on, not an input. The --seed argument drives the trajectories and the
// queries, so runs on different seeds stay comparable.
const (
	citySeed = 1
	cityPOIs = 5000
)

// dataset is one generated input: the per-object records and their global
// event-time merge, which is the order every feed is ingested in.
type dataset struct {
	city    *workload.City
	objects []string
	per     map[string][]gps.Record
	feed    []gps.Record
}

func (d *dataset) sources() semitri.Sources {
	return semitri.Sources{Landuse: d.city.Landuse, Roads: d.city.Roads, POIs: d.city.POIs}
}

func newCity() (*workload.City, error) {
	return workload.NewCity(workload.DefaultCityConfig(citySeed, cityPOIs))
}

// scaled applies the -scale factor to an object count, keeping at least min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// genPeople builds the smartphone-style dataset: users x 7 days at 15 s
// sampling, about 2.1 k records but only ~6 episodes per user-day.
func genPeople(users int, seed int64) (*dataset, error) {
	city, err := newCity()
	if err != nil {
		return nil, err
	}
	ds, err := workload.GeneratePeople(city, workload.DefaultPeopleConfig(users, 7, seed))
	if err != nil {
		return nil, err
	}
	return newDataset(city, ds.Objects, ds.PerObject), nil
}

// genFleet builds the private-car dataset: 40 s sampling, one episode per
// ~54 records.
func genFleet(vehicles int, seed int64) (*dataset, error) {
	city, err := newCity()
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultPrivateCarConfig(seed)
	cfg.NumVehicles = vehicles
	cfg.TripsPerVehicle = 2
	ds, err := workload.GenerateVehicles(city, cfg)
	if err != nil {
		return nil, err
	}
	return newDataset(city, ds.Objects, ds.PerObject), nil
}

func newDataset(city *workload.City, objects []string, per map[string][]gps.Record) *dataset {
	return &dataset{city: city, objects: objects, per: per, feed: mergeFeed(objects, per)}
}

// subset returns the dataset restricted to the given objects, with its own
// event-time merge.
func (d *dataset) subset(objects []string) *dataset {
	per := make(map[string][]gps.Record, len(objects))
	for _, o := range objects {
		per[o] = d.per[o]
	}
	return newDataset(d.city, objects, per)
}

// halves splits the objects into two disjoint sets (even and odd position).
func (d *dataset) halves() (a, b *dataset) {
	var ea, eb []string
	for i, o := range d.objects {
		if i%2 == 0 {
			ea = append(ea, o)
		} else {
			eb = append(eb, o)
		}
	}
	return d.subset(ea), d.subset(eb)
}

// sample returns every step-th object, at least two of them.
func (d *dataset) sample(step int) *dataset {
	var objs []string
	for i := 0; i < len(d.objects); i += step {
		objs = append(objs, d.objects[i])
	}
	if len(objs) < 2 && len(d.objects) >= 2 {
		objs = d.objects[:2]
	}
	return d.subset(objs)
}

// mergeCursor is one object's position in the k-way merge.
type mergeCursor struct {
	recs []gps.Record
	rank int // position of the object in the dataset: the tie-break
}

type mergeHeap []mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	ti, tj := h[i].recs[0].Time, h[j].recs[0].Time
	if !ti.Equal(tj) {
		return ti.Before(tj)
	}
	return h[i].rank < h[j].rank
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeCursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// mergeFeed is the global event-time merge of all objects: what a real feed
// looks like, and what makes per-object stream state, cursors and stripe
// locks miss. Each object's records stay in their own order.
func mergeFeed(objects []string, per map[string][]gps.Record) []gps.Record {
	h := make(mergeHeap, 0, len(objects))
	total := 0
	for i, o := range objects {
		if len(per[o]) > 0 {
			h = append(h, mergeCursor{recs: per[o], rank: i})
			total += len(per[o])
		}
	}
	heap.Init(&h)
	out := make([]gps.Record, 0, total)
	for len(h) > 0 {
		out = append(out, h[0].recs[0])
		if h[0].recs = h[0].recs[1:]; len(h[0].recs) == 0 {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// Statement classes of the query mix.
const (
	classLookup    = "lookup"
	classAnnWindow = "ann_window"
	classSpatial   = "spatial"
	classScan      = "scan"
	classTopK      = "topk"
	classJoin      = "join"
)

// pageSize caps the rows of the window and spatial statements, as a client
// paging through results would.
const pageSize = 50

var queryClasses = []string{classLookup, classAnnWindow, classSpatial, classScan, classTopK, classJoin}

// stmt is one generated statement in the three forms the benchmark needs:
// the URL sent through the HTTP front door, the typed form executed
// in-process, and (through parsed) the form the brute-force check filters by.
type stmt struct {
	class  string
	url    string
	q      query.Query     // single-table statements sent to /query/episodes
	src    string          // relational statements sent to /query/relational
	parsed *lang.Statement // src parsed once, outside any timed section
}

func episodesStmt(class string, q query.Query) stmt {
	v := url.Values{}
	if q.ObjectID != "" {
		v.Set("object", q.ObjectID)
	}
	if q.Kind != nil {
		v.Set("kind", q.Kind.String())
	}
	if !q.From.IsZero() {
		v.Set("from", q.From.Format(time.RFC3339))
	}
	if !q.To.IsZero() {
		v.Set("to", q.To.Format(time.RFC3339))
	}
	if q.AnnKey != "" {
		v.Set("ann", q.AnnKey+"="+q.AnnValue)
	}
	if w := q.Window; w != nil {
		v.Set("minx", fnum(w.Min.X))
		v.Set("miny", fnum(w.Min.Y))
		v.Set("maxx", fnum(w.Max.X))
		v.Set("maxy", fnum(w.Max.Y))
	}
	if q.Near != nil {
		v.Set("nearx", fnum(q.Near.X))
		v.Set("neary", fnum(q.Near.Y))
		v.Set("radius", fnum(q.Radius))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return stmt{class: class, url: "/query/episodes?" + v.Encode(), q: q}
}

func relationalStmt(class, src string) (stmt, error) {
	parsed, err := lang.Parse(src)
	if err != nil {
		return stmt{}, fmt.Errorf("generated statement %q: %w", src, err)
	}
	return stmt{class: class, url: "/query/relational?" + url.Values{"q": {src}}.Encode(), src: src, parsed: &parsed}, nil
}

func fnum(f float64) string { return strconv.FormatFloat(f, 'f', 1, 64) }

// wire rounds a coordinate to what fnum prints, so the URL and the typed
// form of a statement carry the same number.
func wire(f float64) float64 {
	v, _ := strconv.ParseFloat(fnum(f), 64) // fnum output always parses
	return v
}

// storeProfile is what statement generation needs to know about a loaded
// store so that the generated predicates select something: its objects, the
// time span it covers, annotation values that occur and where stops are.
type storeProfile struct {
	objects    []string
	from, to   time.Time
	annValues  map[string][]string
	stopPoints []geo.Point
}

func profileStore(st *store.Store) storeProfile {
	p := storeProfile{objects: st.Objects(), annValues: map[string][]string{}}
	seen := map[string]map[string]bool{core.AnnPOICategory: {}, core.AnnLanduse: {}}
	st.VisitStructuredTuples(query.DefaultInterpretation, func(_ store.TupleRef, t core.EpisodeTuple) bool {
		if p.from.IsZero() || t.TimeIn.Before(p.from) {
			p.from = t.TimeIn
		}
		if t.TimeOut.After(p.to) {
			p.to = t.TimeOut
		}
		for key, vals := range seen {
			if v := t.Annotations.Value(key); v != "" {
				vals[v] = true
			}
		}
		if t.Kind == episode.Stop && t.Episode != nil {
			p.stopPoints = append(p.stopPoints, t.Episode.Center)
		}
		return true
	})
	sort.Strings(p.objects)
	sort.Slice(p.stopPoints, func(i, j int) bool {
		a, b := p.stopPoints[i], p.stopPoints[j]
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	for key, vals := range seen {
		for v := range vals {
			p.annValues[key] = append(p.annValues[key], v)
		}
		sort.Strings(p.annValues[key])
	}
	return p
}

// stmtGen draws statements over a profiled store. Objects are drawn with
// Zipf-skewed popularity over a seeded permutation, so a few objects take
// most lookups, as followed vehicles or users would.
type stmtGen struct {
	rng  *rand.Rand
	prof storeProfile
	zipf *rand.Zipf
	perm []int
	// Places, times and annotation values are not drawn independently but
	// from evenly spreading sequences with a seeded phase: every seed's
	// statements cover the city, the time span and the values alike, so the
	// work in a mix depends little on the seed.
	places, times lowDiscrepancy
	turns         map[string]int
}

// lowDiscrepancy is an additive recurrence over [0, 1): successive values
// fill the interval evenly from wherever the seed started it.
type lowDiscrepancy float64

func (l *lowDiscrepancy) next() float64 {
	*l = lowDiscrepancy(math.Mod(float64(*l)+0.6180339887498949, 1))
	return float64(*l)
}

func newStmtGen(seed int64, prof storeProfile) (*stmtGen, error) {
	if len(prof.objects) == 0 || len(prof.stopPoints) == 0 || !prof.to.After(prof.from) {
		return nil, fmt.Errorf("store holds nothing to query (%d objects, %d stops)", len(prof.objects), len(prof.stopPoints))
	}
	for _, key := range []string{core.AnnPOICategory, core.AnnLanduse} {
		if len(prof.annValues[key]) == 0 {
			return nil, fmt.Errorf("store holds no %s annotation", key)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return &stmtGen{
		rng:    rng,
		prof:   prof,
		zipf:   rand.NewZipf(rng, 1.2, 8, uint64(len(prof.objects)-1)),
		perm:   rng.Perm(len(prof.objects)),
		places: lowDiscrepancy(rng.Float64()),
		times:  lowDiscrepancy(rng.Float64()),
		turns:  map[string]int{},
	}, nil
}

func (g *stmtGen) object() string { return g.prof.objects[g.perm[g.zipf.Uint64()]] }

// window draws a time window covering the given share of the stored span: a
// fleet day and a week of people data get windows of the same selectivity.
func (g *stmtGen) window(share float64) (from, to time.Time) {
	span := g.prof.to.Sub(g.prof.from)
	length := time.Duration(float64(span) * share).Truncate(time.Second)
	from = g.prof.from.Add(time.Duration(g.times.next() * float64(span-length))).Truncate(time.Second)
	return from, from.Add(length)
}

// turn cycles through 0..n-1, with one cycle per purpose.
func (g *stmtGen) turn(what string, n int) int {
	g.turns[what]++
	return g.turns[what] % n
}

// pick takes the values in turn.
func (g *stmtGen) pick(what string, vals []string) string { return vals[g.turn(what, len(vals))] }

// stop returns the centre of a stored stop; stopPoints is sorted west to east.
func (g *stmtGen) stop() geo.Point {
	return g.prof.stopPoints[int(g.places.next()*float64(len(g.prof.stopPoints)))]
}

func (g *stmtGen) lookup() stmt {
	return episodesStmt(classLookup, query.Query{ObjectID: g.object()})
}

func (g *stmtGen) annWindow() stmt {
	from, to := g.window(0.1)
	stop := episode.Stop
	key := []string{core.AnnPOICategory, core.AnnLanduse}[g.turn("ann key", 2)]
	return episodesStmt(classAnnWindow, query.Query{
		Kind: &stop, AnnKey: key, AnnValue: g.pick(key, g.prof.annValues[key]), From: from, To: to, Limit: pageSize,
	})
}

func (g *stmtGen) spatial() stmt {
	c := g.stop()
	if g.turn("spatial shape", 2) == 0 {
		half := float64(60 + 10*g.turn("window size", 15))
		w := geo.NewRect(geo.Pt(wire(c.X-half), wire(c.Y-half)), geo.Pt(wire(c.X+half), wire(c.Y+half)))
		return episodesStmt(classSpatial, query.Query{Window: &w, Limit: pageSize})
	}
	c = geo.Pt(wire(c.X), wire(c.Y))
	return episodesStmt(classSpatial, query.Query{Near: &c, Radius: 100, Limit: pageSize})
}

// rfc renders a timestamp as a quoted statement value.
func rfc(t time.Time) string { return strconv.Quote(t.Format(time.RFC3339)) }

// join is the co-location question around a place: which stops within
// radius of a stored stop, in a time window, had a stop of another object
// within 200 m and 30 min of them.
func (g *stmtGen) join(share, radius float64, tail string) (stmt, error) {
	from, to := g.window(share)
	c := g.stop()
	window := fmt.Sprintf("from = %s and to = %s", rfc(from), rfc(to))
	return relationalStmt(classJoin, fmt.Sprintf(
		"stops where %s and near(%s, %s, %s) join stops where %s on distance <= 200 and within 30m and distinct objects%s",
		window, fnum(c.X), fnum(c.Y), fnum(radius), window, tail))
}

// scan draws a statement no index serves: a kind-only full scan, or a pure
// time-window scan, which a tiered store answers by pruning segments on
// their footers.
func (g *stmtGen) scan() (stmt, error) {
	if g.turn("scan shape", 3) == 0 {
		return relationalStmt(classScan, g.pick("scan source", []string{"stops", "moves", "episodes"}))
	}
	from, to := g.window(0.1)
	return relationalStmt(classScan, fmt.Sprintf("episodes where from = %s and to = %s", rfc(from), rfc(to)))
}

func (g *stmtGen) topK() (stmt, error) {
	from, to := g.window(0.3)
	return relationalStmt(classTopK, g.pick("topk", []string{
		"stops group by ann.poi_category count top 5",
		"moves group by ann.road_name count top 10",
		"stops group by place distinct objects top 10",
		fmt.Sprintf("episodes where from = %s and to = %s group by object duration top 10", rfc(from), rfc(to)),
	}))
}

// servingMix draws the front-door mix: in every hundred statements 70
// timeline lookups, 18 annotation + time window, 10 spatial and 2
// co-location joins, in shuffled order.
func (g *stmtGen) servingMix(n int) ([]stmt, error) {
	out := make([]stmt, 0, n)
	for i := 0; i < n; i++ {
		switch r := i % 100; {
		case r < 70:
			out = append(out, g.lookup())
		case r < 88:
			out = append(out, g.annWindow())
		case r < 98:
			out = append(out, g.spatial())
		default:
			s, err := g.join(0.05, 400, " limit 50")
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// analyticsBatch draws the heavy read-only batch: scans, top-K aggregations
// and co-location joins in equal parts.
func (g *stmtGen) analyticsBatch(n int) ([]stmt, error) {
	out := make([]stmt, 0, n)
	for len(out) < n {
		var s stmt
		var err error
		switch len(out) % 3 {
		case 0:
			s, err = g.scan()
		case 1:
			s, err = g.topK()
		default:
			tail := ""
			if len(out)%2 == 0 {
				tail = " group by object distinct objects top 10"
			}
			s, err = g.join(0.2, 1200, tail)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// everyClass draws per statements of each class, for the checks and the
// layer replay, which cover all classes on every workload.
func (g *stmtGen) everyClass(per int) ([]stmt, error) {
	var out []stmt
	for i := 0; i < per; i++ {
		out = append(out, g.lookup(), g.annWindow(), g.spatial())
		for _, draw := range []func() (stmt, error){
			g.scan, g.topK, func() (stmt, error) { return g.join(0.05, 400, " limit 50") },
		} {
			s, err := draw()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}
