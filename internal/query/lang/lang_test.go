package lang

import (
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

var t0 = time.Date(2010, 3, 15, 8, 0, 0, 0, time.UTC)

// TestParseSingleTable pins the compilation of single-table statements onto
// the typed Query.
func TestParseSingleTable(t *testing.T) {
	stmt, err := Parse(`stops where object = u1 and ann.poi_category = "item sale"` +
		` and from = 2010-03-15T08:00:00Z and near(100, 200, 50.5) limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join != nil || stmt.Agg != nil {
		t.Fatalf("single-table statement parsed as join/aggregate: %+v", stmt)
	}
	q := stmt.Query
	if q.Kind == nil || *q.Kind != episode.Stop {
		t.Fatalf("stops did not pin the kind: %+v", q)
	}
	if q.ObjectID != "u1" {
		t.Fatalf("object predicate: %+v", q)
	}
	if q.AnnKey != "poi_category" || q.AnnValue != "item sale" {
		t.Fatalf("quoted annotation predicate: %+v", q)
	}
	if !q.From.Equal(t0) {
		t.Fatalf("bare-word RFC 3339 timestamp: got %v", q.From)
	}
	if q.Near == nil || q.Near.X != 100 || q.Near.Y != 200 || q.Radius != 50.5 {
		t.Fatalf("near predicate: %+v", q)
	}
	if q.Limit != 3 {
		t.Fatalf("limit: %+v", q)
	}

	moves, err := Parse("moves where window(0, 0, 1000, 1000) and trajectory = u1-T0")
	if err != nil {
		t.Fatal(err)
	}
	mq := moves.Query
	if mq.Kind == nil || *mq.Kind != episode.Move || mq.TrajectoryID != "u1-T0" {
		t.Fatalf("moves statement: %+v", mq)
	}
	if mq.Window == nil || *mq.Window != geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)) {
		t.Fatalf("window predicate: %+v", mq)
	}

	all, err := Parse("episodes")
	if err != nil {
		t.Fatal(err)
	}
	if all.Query.Kind != nil {
		t.Fatalf("episodes must match both kinds: %+v", all.Query)
	}
}

// TestParseJoinAggregate pins the canonical co-location statement.
func TestParseJoinAggregate(t *testing.T) {
	stmt, err := Parse("stops join stops on distance <= 200 and within 1h" +
		" and distinct objects group by object distinct objects top 10")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join == nil {
		t.Fatal("join statement did not produce a Join")
	}
	on := stmt.Join.On
	if on.MaxDistance != 200 || on.Within != time.Hour || !on.DistinctObjects {
		t.Fatalf("join predicate: %+v", on)
	}
	if stmt.Agg == nil || stmt.Agg.By != query.DimObject ||
		stmt.Agg.Metric != query.MetricDistinctObjects || stmt.Agg.K != 10 {
		t.Fatalf("aggregate clause: %+v", stmt.Agg)
	}

	more, err := Parse(`moves join moves on same ann.road_name and overlaps` +
		` and same object group by ann.road_name duration limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	on = more.Join.On
	if on.SameAnnKey != "road_name" || !on.TimeOverlap || !on.SameObject {
		t.Fatalf("join predicate: %+v", on)
	}
	if more.Join.Limit != 5 {
		t.Fatalf("limit must land on the join: %+v", more.Join)
	}
	if more.Agg.By != query.DimAnnotation || more.Agg.AnnKey != "road_name" ||
		more.Agg.Metric != query.MetricDuration {
		t.Fatalf("aggregate clause: %+v", more.Agg)
	}
}

// TestParseErrors checks that malformed statements fail at parse time with a
// positioned error, including statements that lex fine but validate badly.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"tuples",                                // unknown source
		"stops where",                           // dangling where
		"stops where object u1",                 // missing =
		"stops where color = red",               // unknown predicate
		"stops where from = yesterday",          // not RFC 3339
		"stops where near(1, 2)",                // arity
		"stops where near(1, 2, NaN)",           // non-finite radius
		"stops where window(0, 0, Inf, 1)",      // non-finite window
		"stops join stops on distance <= NaN",   // non-finite distance
		"stops join stops",                      // missing on
		"stops join stops on distance = 200",    // = is not an ordering
		"stops join stops on same object",       // no pairing clause
		"stops join stops on within 1h extra",   // trailing input
		"stops join stops on within -1h",        // negative duration
		"stops group by city",                   // unknown dimension
		"stops group by ann",                    // ann without key
		"stops group by object top -1",          // negative top-K
		"stops limit 2 limit 3",                 // trailing input
		`stops where ann.k = "unterminated`,     // lexer error
		"stops where object = u1 and",           // dangling and
		"stops join stops on overlaps and same", // dangling same
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// seedEngine stores a small two-object workload: both objects stop at the
// same spot around the same time (the co-location pair), plus a far-away
// stop that must never pair.
func seedEngine(t *testing.T) *query.Engine {
	t.Helper()
	st := store.New()
	e := query.NewEngine(st)
	mk := func(obj, traj string, at time.Time, center geo.Point, cat string) {
		ep := &episode.Episode{
			Kind: episode.Stop, Start: at, End: at.Add(30 * time.Minute),
			Center: center, Bounds: geo.RectAround(center, 30),
		}
		tp := &core.EpisodeTuple{Kind: episode.Stop, TimeIn: at, TimeOut: at.Add(30 * time.Minute), Episode: ep}
		tp.Annotations.Add(core.Annotation{Key: core.AnnPOICategory, Value: cat, Confidence: 0.9, Source: "test"})
		if err := st.AppendStructuredTuples(traj, obj, query.DefaultInterpretation, tp); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", "a-T0", t0, geo.Pt(100, 100), "restaurant")
	mk("b", "b-T0", t0.Add(20*time.Minute), geo.Pt(150, 100), "restaurant")
	mk("c", "c-T0", t0, geo.Pt(5000, 5000), "office")
	return e
}

// TestRunShapes runs each statement shape end-to-end: exactly one of
// Matches/Pairs/Groups is produced (never nil), and the plan is echoed.
func TestRunShapes(t *testing.T) {
	e := seedEngine(t)

	matches, err := Run(e, "stops where ann.poi_category = restaurant")
	if err != nil {
		t.Fatal(err)
	}
	if matches.Matches == nil || matches.Pairs != nil || matches.Groups != nil {
		t.Fatalf("single-table shape: %+v", matches)
	}
	if len(matches.Matches) != 2 || matches.Plan == "" {
		t.Fatalf("expected 2 restaurant stops and a plan, got %+v", matches)
	}

	pairs, err := Run(e, "stops join stops on distance <= 200 and within 1h and distinct objects")
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Pairs == nil || pairs.Matches != nil || pairs.Groups != nil {
		t.Fatalf("join shape: %+v", pairs)
	}
	// a~b pair both ways; c is 7km away.
	if len(pairs.Pairs) != 2 {
		t.Fatalf("expected the a~b pair both ways, got %d pairs", len(pairs.Pairs))
	}
	for _, p := range pairs.Pairs {
		if p.Left.Ref.ObjectID == "c" || p.Right.Ref.ObjectID == "c" {
			t.Fatalf("far-away stop paired: %+v", p)
		}
	}
	if !strings.Contains(pairs.Plan, "build=") || !strings.Contains(pairs.Plan, "probe=") {
		t.Fatalf("join plan not echoed: %q", pairs.Plan)
	}

	groups, err := Run(e, "stops join stops on distance <= 200 and within 1h"+
		" and distinct objects group by object distinct objects top 10")
	if err != nil {
		t.Fatal(err)
	}
	if groups.Groups == nil || groups.Matches != nil || groups.Pairs != nil {
		t.Fatalf("aggregate shape: %+v", groups)
	}
	if len(groups.Groups) != 2 {
		t.Fatalf("expected groups for a and b, got %+v", groups.Groups)
	}
	for _, g := range groups.Groups {
		if g.Value != 1 {
			t.Fatalf("each object co-locates with exactly one other, got %+v", g)
		}
	}

	empty, err := Run(e, "stops join stops on distance <= 1 and within 1s and distinct objects")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Pairs == nil || len(empty.Pairs) != 0 {
		t.Fatalf("empty join must keep its shape (non-nil Pairs): %+v", empty)
	}

	if _, err := Run(e, "stops join stops on"); err == nil {
		t.Fatal("Run accepted a malformed statement")
	}
}

// TestParseQuery pins the standing-query subset: single-table statements
// compile, while joins, aggregations and limits are rejected.
func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("stops where window(0, 0, 500, 500) and ann.poi_category = park")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind == nil || *q.Kind != episode.Stop || q.Window == nil || q.AnnKey != "poi_category" {
		t.Fatalf("compiled query: %+v", q)
	}
	for _, src := range []string{
		"stops join stops on distance <= 200 and distinct objects",
		"stops group by object count",
		"stops limit 5",
		"stops where object =",
	} {
		if _, err := ParseQuery(src); err == nil {
			t.Fatalf("ParseQuery(%q) accepted a non-standing statement", src)
		}
	}
}

// TestEveryExecuteRecordsLatency: every single-table entry point — Execute,
// ExecuteExplained, ExecuteTraced and a statement through Run — observes
// the planning and execution latency histograms once per query, so both
// counts rise exactly as semitri_query_total does.
func TestEveryExecuteRecordsLatency(t *testing.T) {
	e := seedEngine(t)
	stop := episode.Stop
	q := query.Query{Kind: &stop}
	total := func() int64 {
		var n int64
		for _, c := range obs.QueryByPath {
			n += c.Value()
		}
		return n
	}
	entries := []struct {
		name string
		run  func() error
	}{
		{"Execute", func() error { _, err := e.Execute(q); return err }},
		{"ExecuteExplained", func() error { _, _, err := e.ExecuteExplained(q); return err }},
		{"ExecuteTraced", func() error { _, _, _, err := e.ExecuteTraced(q); return err }},
		{"lang.Run", func() error { _, err := Run(e, "stops where ann.poi_category = restaurant"); return err }},
	}
	const n = 5
	for _, en := range entries {
		q0, p0, x0 := total(), obs.QueryPlanNs.Count(), obs.QueryExecNs.Count()
		for i := 0; i < n; i++ {
			if err := en.run(); err != nil {
				t.Fatalf("%s: %v", en.name, err)
			}
		}
		dq := total() - q0
		if dq != n {
			t.Fatalf("%s: semitri_query_total rose by %d over %d queries", en.name, dq, n)
		}
		if dp, dx := obs.QueryPlanNs.Count()-p0, obs.QueryExecNs.Count()-x0; dp != dq || dx != dq {
			t.Errorf("%s: plan_ns count +%d, exec_ns count +%d, query_total +%d", en.name, dp, dx, dq)
		}
	}
}
