package lang

import (
	"testing"

	"semitri/internal/query"
	"semitri/internal/store"
)

// FuzzParse drives the parser with arbitrary statements, seeded with the
// grammar's productions. Invariants: the lexer makes the tokens and errors
// of the reference rune lexer (lexRunes), at the same rune offsets; a
// statement that parses runs on an empty engine without an error (Parse's
// contract); and nothing panics.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"stops join stops on distance <= 200 and within 1h and distinct objects group by object distinct objects top 10",
		`stops where object = u1 and ann.poi_category = "item sale" and from = 2010-03-15T08:00:00Z and near(100, 200, 50.5) limit 3`,
		"moves where window(0, 0, 1000, 1000) and trajectory = u1-T0 and interpretation = merged",
		"episodes where to = 2010-03-15T09:00:00Z",
		"moves join moves on same ann.road_name and overlaps and same object group by ann.road_name duration limit 5",
		"stops join episodes on same place and distance < 1.5 and within 90m group by place count",
		"episodes group by kind count top 3",
		"stops group by trajectory duration",
		"stops join stops on",
	} {
		f.Add(seed)
	}
	for _, seed := range lexStatements {
		f.Add(seed)
	}
	e := query.NewEngine(store.New())
	f.Fuzz(func(t *testing.T, src string) {
		checkLex(t, src)
		if _, err := Parse(src); err != nil {
			return
		}
		if _, err := Run(e, src); err != nil {
			t.Fatalf("Parse(%q) succeeds but Run fails: %v", src, err)
		}
	})
}
