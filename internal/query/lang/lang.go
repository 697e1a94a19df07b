// Package lang is the small declarative query language of the relational
// layer: a SQL-ish one-liner that compiles to the typed Query/Join/Aggregate
// structs of internal/query, so the HTTP serving layer (and any script
// poking it with curl) can express cross-object relational questions without
// constructing JSON-encoded structs. The shape is Datalog in spirit — joins
// follow from the shared clauses named in `on`, and the engine plans them
// greedily from cardinality estimates, no statistics — with SQL keywords for
// readability.
//
// Grammar (keywords case-insensitive; values are bare words — which cover
// ids, RFC 3339 timestamps and Go durations like 90m or 1h30m — or
// double-quoted strings when they contain spaces):
//
//	statement  = source [ "join" source "on" cond { "and" cond } ]
//	             [ "group" "by" dim [ metric ] [ "top" INT ] ]
//	             [ "limit" INT ] .
//	source     = ( "stops" | "moves" | "episodes" )
//	             [ "where" pred { "and" pred } ] .
//	pred       = "object" "=" value
//	           | "trajectory" "=" value
//	           | "interpretation" "=" value
//	           | "ann" "." key "=" value
//	           | "from" "=" value          (RFC 3339)
//	           | "to" "=" value            (RFC 3339)
//	           | "near" "(" NUM "," NUM "," NUM ")"       (x, y, radius m)
//	           | "window" "(" NUM "," NUM "," NUM "," NUM ")" .
//	cond       = "within" DURATION
//	           | "overlaps"
//	           | ( "distance" ) ( "<" | "<=" ) NUM        (metres)
//	           | "same" ( "object" | "place" )
//	           | "same" "ann" "." key
//	           | "distinct" "objects" .
//	dim        = "object" | "trajectory" | "place" | "kind"
//	           | "ann" "." key .
//	metric     = "count" | "distinct" "objects" | "duration" .
//
// The canonical co-location question — which objects stopped within 200 m
// and one hour of each other — reads:
//
//	stops join stops on distance <= 200 and within 1h and distinct objects
//	      group by object distinct objects top 10
package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"semitri/internal/episode"
	"semitri/internal/geo"
	"semitri/internal/query"
)

// Statement is a parsed statement: a single-table query, or a join when
// Join is non-nil (Query is then Join.Left), optionally aggregated.
type Statement struct {
	Query query.Query
	Join  *query.Join
	Agg   *query.Aggregate
}

// Parse compiles one statement of the language into the typed structs. The
// result is fully validated: everything Parse returns, the engine executes.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return Statement{}, err
	}
	return stmt, nil
}

// ParseQuery compiles a single-table statement into its typed Query — the
// subset a standing subscription can evaluate incrementally. Joins,
// aggregations and limits are rejected with a descriptive error: /subscribe
// reuses the full statement grammar, but a continuous query is a predicate
// over single tuples, not a relational pipeline.
func ParseQuery(src string) (query.Query, error) {
	stmt, err := Parse(src)
	if err != nil {
		return query.Query{}, err
	}
	if stmt.Join != nil {
		return query.Query{}, errors.New("lang: joins cannot run as standing queries")
	}
	if stmt.Agg != nil {
		return query.Query{}, errors.New("lang: aggregations cannot run as standing queries")
	}
	if stmt.Query.Limit != 0 {
		return query.Query{}, errors.New("lang: standing queries cannot carry a limit")
	}
	return stmt.Query, nil
}

// Result is what running a statement produces: exactly one of Matches
// (single-table, unaggregated), Pairs (join, unaggregated) or Groups
// (aggregated), plus the plan the engine executed. The produced slice is
// never nil — an empty result still identifies the statement's shape.
type Result struct {
	Plan    string
	Matches []query.Match
	Pairs   []query.JoinMatch
	Groups  []query.Group
}

// Run parses and executes src against the engine.
func Run(e *query.Engine, src string) (Result, error) {
	res, _, err := run(e, src, false)
	return res, err
}

// RunTraced is Run plus the statement's EXPLAIN ANALYZE trace. The
// aggregation fold, when present, is timed as one extra trace stage.
func RunTraced(e *query.Engine, src string) (Result, *query.Trace, error) {
	return run(e, src, true)
}

// run is the one body behind Run and RunTraced: parse, execute the query or
// join (traced when asked), then fold the aggregate if the statement has one.
func run(e *query.Engine, src string, traced bool) (Result, *query.Trace, error) {
	stmt, err := Parse(src)
	if err != nil {
		return Result{}, nil, err
	}
	var (
		res Result
		tr  *query.Trace
	)
	if stmt.Join != nil {
		var plan query.JoinPlan
		if traced {
			res.Pairs, plan, tr, err = e.ExecuteJoinTraced(*stmt.Join)
		} else {
			res.Pairs, plan, err = e.ExecuteJoinExplained(*stmt.Join)
		}
		res.Plan = plan.String()
	} else {
		var plan query.Plan
		if traced {
			res.Matches, plan, tr, err = e.ExecuteTraced(stmt.Query)
		} else {
			res.Matches, plan, err = e.ExecuteExplained(stmt.Query)
		}
		res.Plan = plan.String()
	}
	if err != nil {
		return Result{}, nil, err
	}
	if stmt.Agg == nil {
		switch {
		case stmt.Join != nil && res.Pairs == nil:
			res.Pairs = []query.JoinMatch{}
		case stmt.Join == nil && res.Matches == nil:
			res.Matches = []query.Match{}
		}
		return res, tr, nil
	}
	t0 := time.Now()
	if stmt.Join != nil {
		res.Groups, err = e.AggregatePairs(*stmt.Agg, res.Pairs)
	} else {
		res.Groups, err = e.AggregateMatches(*stmt.Agg, res.Matches)
	}
	res.Pairs, res.Matches = nil, nil
	if tr != nil {
		ns := time.Since(t0).Nanoseconds()
		tr.Stages = append(tr.Stages, query.TraceStage{Name: "aggregate", Ns: ns, Rows: len(res.Groups)})
		tr.TotalNs += ns
	}
	return res, tr, err
}

// ---- lexer ----

type tokKind int

const (
	tokWord   tokKind = iota // bare word: keyword, value, number, duration
	tokString                // "quoted value"
	tokPunct                 // ( ) , . = < <=
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// isWordRune reports whether r may appear in a bare word. The set covers
// identifiers, numbers, durations (1h30m) and common ids (u1-T0) — anything
// richer (RFC 3339 timestamps, values with spaces) must be quoted.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == ':'
}

func lex(src string) ([]token, error) {
	var toks []token
	rs := []rune(src)
	for i := 0; i < len(rs); {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '"':
			j := i + 1
			for j < len(rs) && rs[j] != '"' {
				j++
			}
			if j == len(rs) {
				return nil, fmt.Errorf("lang: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: string(rs[i+1 : j]), pos: i})
			i = j + 1
		case r == '<':
			if i+1 < len(rs) && rs[i+1] == '=' {
				toks = append(toks, token{kind: tokPunct, text: "<=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokPunct, text: "<", pos: i})
				i++
			}
		case r == '(' || r == ')' || r == ',' || r == '.' || r == '=':
			toks = append(toks, token{kind: tokPunct, text: string(r), pos: i})
			i++
		case isWordRune(r) || r == '+':
			j := i
			for j < len(rs) && (isWordRune(rs[j]) || rs[j] == '+' || rs[j] == '.') {
				// A '.' joins a word only between digits (floats like 0.5);
				// elsewhere it is the ann-key separator.
				if rs[j] == '.' && !(j > i && unicode.IsDigit(rs[j-1]) && j+1 < len(rs) && unicode.IsDigit(rs[j+1])) {
					break
				}
				j++
			}
			toks = append(toks, token{kind: tokWord, text: string(rs[i:j]), pos: i})
			i = j
		default:
			return nil, fmt.Errorf("lang: unexpected character %q at offset %d", r, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(rs)})
	return toks, nil
}

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword reports whether the next token is the given keyword
// (case-insensitive bare word) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokWord && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		t := p.peek()
		return fmt.Errorf("lang: expected %q at offset %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

// expectPunct consumes the punctuation token or fails.
func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return nil
	}
	return fmt.Errorf("lang: expected %q at offset %d, got %q", s, t.pos, t.text)
}

// value consumes a bare word or quoted string.
func (p *parser) value() (string, error) {
	t := p.next()
	if t.kind != tokWord && t.kind != tokString {
		return "", fmt.Errorf("lang: expected a value at offset %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}

// number consumes a numeric bare word.
func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokWord {
		return 0, fmt.Errorf("lang: expected a number at offset %d, got %q", t.pos, t.text)
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("lang: bad number %q at offset %d", t.text, t.pos)
	}
	return f, nil
}

// intNumber consumes a non-negative integer bare word.
func (p *parser) intNumber() (int, error) {
	t := p.next()
	n, err := strconv.Atoi(t.text)
	if t.kind != tokWord || err != nil {
		return 0, fmt.Errorf("lang: expected an integer at offset %d, got %q", t.pos, t.text)
	}
	return n, nil
}

// annKey parses the ".key" suffix after the "ann" keyword.
func (p *parser) annKey() (string, error) {
	if err := p.expectPunct("."); err != nil {
		return "", err
	}
	t := p.next()
	if t.kind != tokWord {
		return "", fmt.Errorf("lang: expected an annotation key at offset %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	var stmt Statement
	left, err := p.parseSource()
	if err != nil {
		return stmt, err
	}
	if p.keyword("join") {
		right, err := p.parseSource()
		if err != nil {
			return stmt, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return stmt, err
		}
		var on query.JoinOn
		for {
			if err := p.parseCond(&on); err != nil {
				return stmt, err
			}
			if !p.keyword("and") {
				break
			}
		}
		stmt.Join = &query.Join{Left: left, Right: right, On: on}
	} else {
		stmt.Query = left
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return stmt, err
		}
		agg, err := p.parseAggregate()
		if err != nil {
			return stmt, err
		}
		stmt.Agg = agg
	}
	if p.keyword("limit") {
		n, err := p.intNumber()
		if err != nil {
			return stmt, err
		}
		if stmt.Join != nil {
			stmt.Join.Limit = n
		} else {
			stmt.Query.Limit = n
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return stmt, fmt.Errorf("lang: trailing input at offset %d: %q", t.pos, t.text)
	}
	// Validate everything now: a parsed statement must be executable as is.
	if stmt.Join != nil {
		if err := stmt.Join.On.Validate(); err != nil {
			return stmt, err
		}
		if stmt.Join.Limit < 0 {
			return stmt, errors.New("lang: negative limit")
		}
	}
	if stmt.Agg != nil {
		if err := stmt.Agg.Validate(); err != nil {
			return stmt, err
		}
	}
	return stmt, nil
}

// parseSource parses one side of the statement into a validated Query.
func (p *parser) parseSource() (query.Query, error) {
	var q query.Query
	switch {
	case p.keyword("stops"):
		k := episode.Stop
		q.Kind = &k
	case p.keyword("moves"):
		k := episode.Move
		q.Kind = &k
	case p.keyword("episodes"):
		// both kinds
	default:
		t := p.peek()
		return q, fmt.Errorf("lang: expected stops, moves or episodes at offset %d, got %q", t.pos, t.text)
	}
	if p.keyword("where") {
		for {
			if err := p.parsePred(&q); err != nil {
				return query.Query{}, err
			}
			if !p.keyword("and") {
				break
			}
		}
	}
	return q, q.Validate()
}

// parsePred parses one where-clause predicate into the fields of q it sets.
func (p *parser) parsePred(q *query.Query) (err error) {
	t := p.next()
	if t.kind != tokWord {
		return fmt.Errorf("lang: expected a predicate at offset %d, got %q", t.pos, t.text)
	}
	eqValue := func() (string, error) {
		if err := p.expectPunct("="); err != nil {
			return "", err
		}
		return p.value()
	}
	switch strings.ToLower(t.text) {
	case "object":
		q.ObjectID, err = eqValue()
	case "trajectory":
		q.TrajectoryID, err = eqValue()
	case "interpretation":
		q.Interpretation, err = eqValue()
	case "ann":
		if q.AnnKey, err = p.annKey(); err == nil {
			q.AnnValue, err = eqValue()
		}
	case "from", "to":
		var v string
		var ts time.Time
		if v, err = eqValue(); err != nil {
			return err
		}
		if ts, err = time.Parse(time.RFC3339, v); err != nil {
			return fmt.Errorf("lang: %s wants an RFC 3339 timestamp: %w", t.text, err)
		}
		if strings.EqualFold(t.text, "from") {
			q.From = ts
		} else {
			q.To = ts
		}
	case "near":
		var nums []float64
		if nums, err = p.parenNumbers(3); err == nil {
			q.Near, q.Radius = &geo.Point{X: nums[0], Y: nums[1]}, nums[2]
		}
	case "window":
		var nums []float64
		if nums, err = p.parenNumbers(4); err == nil {
			r := geo.NewRect(geo.Pt(nums[0], nums[1]), geo.Pt(nums[2], nums[3]))
			q.Window = &r
		}
	default:
		return fmt.Errorf("lang: unknown predicate %q at offset %d", t.text, t.pos)
	}
	return err
}

// parenNumbers parses "(" NUM { "," NUM } ")" with exactly n numbers.
func (p *parser) parenNumbers(n int) ([]float64, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		f, err := p.number()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, p.expectPunct(")")
}

// parseCond parses one join condition into the JoinOn under construction.
func (p *parser) parseCond(on *query.JoinOn) error {
	t := p.next()
	if t.kind != tokWord {
		return fmt.Errorf("lang: expected a join condition at offset %d, got %q", t.pos, t.text)
	}
	switch strings.ToLower(t.text) {
	case "within":
		v := p.next()
		if v.kind != tokWord {
			return fmt.Errorf("lang: within wants a duration at offset %d, got %q", v.pos, v.text)
		}
		d, err := time.ParseDuration(v.text)
		if err != nil {
			return fmt.Errorf("lang: bad duration %q: %w", v.text, err)
		}
		on.Within = d
		return nil
	case "overlaps":
		on.TimeOverlap = true
		return nil
	case "distance":
		op := p.next()
		if op.kind != tokPunct || (op.text != "<" && op.text != "<=") {
			return fmt.Errorf("lang: distance wants < or <= at offset %d, got %q", op.pos, op.text)
		}
		f, err := p.number()
		if err != nil {
			return err
		}
		on.MaxDistance = f
		return nil
	case "same":
		switch {
		case p.keyword("object"):
			on.SameObject = true
		case p.keyword("place"):
			on.SamePlace = true
		case p.keyword("ann"):
			key, err := p.annKey()
			if err != nil {
				return err
			}
			on.SameAnnKey = key
		default:
			v := p.peek()
			return fmt.Errorf("lang: same wants object, place or ann.<key> at offset %d, got %q", v.pos, v.text)
		}
		return nil
	case "distinct":
		if err := p.expectKeyword("objects"); err != nil {
			return err
		}
		on.DistinctObjects = true
		return nil
	}
	return fmt.Errorf("lang: unknown join condition %q at offset %d", t.text, t.pos)
}

// parseAggregate parses the group-by clause after "group by".
func (p *parser) parseAggregate() (*query.Aggregate, error) {
	agg := &query.Aggregate{}
	t := p.next()
	if t.kind != tokWord {
		return nil, fmt.Errorf("lang: expected a grouping dimension at offset %d, got %q", t.pos, t.text)
	}
	switch strings.ToLower(t.text) {
	case "object":
		agg.By = query.DimObject
	case "trajectory":
		agg.By = query.DimTrajectory
	case "place":
		agg.By = query.DimPlace
	case "kind":
		agg.By = query.DimKind
	case "ann":
		key, err := p.annKey()
		if err != nil {
			return nil, err
		}
		agg.By = query.DimAnnotation
		agg.AnnKey = key
	default:
		return nil, fmt.Errorf("lang: unknown grouping dimension %q at offset %d", t.text, t.pos)
	}
	switch {
	case p.keyword("count"):
		agg.Metric = query.MetricCount
	case p.keyword("distinct"):
		if err := p.expectKeyword("objects"); err != nil {
			return nil, err
		}
		agg.Metric = query.MetricDistinctObjects
	case p.keyword("duration"):
		agg.Metric = query.MetricDuration
	}
	if p.keyword("top") {
		k, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		agg.K = k
	}
	return agg, nil
}
