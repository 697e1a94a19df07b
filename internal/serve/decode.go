package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/query"
)

// decoder is the one shared query-parameter reader of the serving layer:
// every endpoint decodes through it, so parameter errors accumulate into a
// single structured 400 body instead of each handler growing its own ad-hoc
// parsing and error style. Typed getters record a zero value and an error
// on malformed input; Err returns the combined error after decoding.
type decoder struct {
	p    url.Values
	errs []string
}

func newDecoder(r *http.Request) *decoder { return &decoder{p: r.URL.Query()} }

// fail records one parameter error.
func (d *decoder) fail(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// Err returns the accumulated decoding error, nil when the request was
// well-formed.
func (d *decoder) Err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(d.errs, "; "))
}

// str reads a string parameter ("" when absent).
func (d *decoder) str(name string) string { return d.p.Get(name) }

// boolVal reads a flag parameter: absent, "0", "false" and "no" mean false,
// any other value (?trace=1, ?trace=true, even a bare ?trace=) means true.
func (d *decoder) boolVal(name string) bool {
	if !d.p.Has(name) {
		return false
	}
	switch strings.ToLower(d.p.Get(name)) {
	case "0", "false", "no":
		return false
	}
	return true
}

// intVal reads an integer parameter (0 when absent).
func (d *decoder) intVal(name string) int {
	v := d.p.Get(name)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.fail("%s: %v", name, err)
		return 0
	}
	return n
}

// timeVal reads an RFC 3339 timestamp parameter (zero time when absent).
func (d *decoder) timeVal(name string) time.Time {
	v := d.p.Get(name)
	if v == "" {
		return time.Time{}
	}
	ts, err := time.Parse(time.RFC3339, v)
	if err != nil {
		d.fail("%s: %v", name, err)
		return time.Time{}
	}
	return ts
}

// floatVal reads a float parameter; ok reports whether it was present and
// well-formed.
func (d *decoder) floatVal(name string) (f float64, ok bool) {
	v := d.p.Get(name)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d.fail("%s: %v", name, err)
		return 0, false
	}
	return f, true
}

// kindVal reads the episode-kind parameter (nil when absent = both kinds).
func (d *decoder) kindVal(name string) *episode.Kind {
	switch v := d.p.Get(name); v {
	case "":
		return nil
	case "stop":
		k := episode.Stop
		return &k
	case "move":
		k := episode.Move
		return &k
	default:
		d.fail("unknown %s %q (want stop or move)", name, v)
		return nil
	}
}

// floatGroup reads a group of float parameters that must be given together
// (a partial spatial window is a malformed query, not a query with the
// missing coordinate read as zero). ok reports whether the full group was
// present.
func (d *decoder) floatGroup(names ...string) (map[string]float64, bool) {
	out := map[string]float64{}
	for _, n := range names {
		if f, ok := d.floatVal(n); ok {
			out[n] = f
		}
	}
	if len(out) == 0 {
		return nil, false
	}
	if len(out) != len(names) {
		d.fail("parameters %s must be given together", strings.Join(names, ", "))
		return nil, false
	}
	return out, true
}

// decodeQuery maps URL parameters onto a validated query.Query:
//
//	object, trajectory, interpretation, kind=stop|move, limit
//	from, to            RFC 3339 timestamps (closed window, open sides)
//	ann=key=value       annotation equality (alias: annkey + annvalue)
//	minx,miny,maxx,maxy spatial window over episode geometry
//	nearx,neary,radius  radius (metres) around a point
func decodeQuery(d *decoder) (query.Query, error) {
	q := query.Query{
		ObjectID:       d.str("object"),
		TrajectoryID:   d.str("trajectory"),
		Interpretation: d.str("interpretation"),
		Kind:           d.kindVal("kind"),
		From:           d.timeVal("from"),
		To:             d.timeVal("to"),
	}
	if ann := d.str("ann"); ann != "" {
		key, value, ok := strings.Cut(ann, "=")
		if !ok || key == "" {
			d.fail("ann must be key=value, got %q", ann)
		}
		q.AnnKey, q.AnnValue = key, value
	}
	if k := d.str("annkey"); k != "" {
		q.AnnKey, q.AnnValue = k, d.str("annvalue")
	}
	if w, ok := d.floatGroup("minx", "miny", "maxx", "maxy"); ok {
		r := geo.NewRect(geo.Pt(w["minx"], w["miny"]), geo.Pt(w["maxx"], w["maxy"]))
		q.Window = &r
	}
	if n, ok := d.floatGroup("nearx", "neary", "radius"); ok {
		q.Near, q.Radius = &geo.Point{X: n["nearx"], Y: n["neary"]}, n["radius"]
	}
	q.Limit = d.intVal("limit")
	if err := d.Err(); err != nil {
		return query.Query{}, err
	}
	return q, q.Validate()
}
