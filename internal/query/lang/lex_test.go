package lang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// lexRunes is the reference lexer: the rune-slice walk lex replaced, kept
// to pin that lex makes the same tokens and errors, at the same rune
// offsets.
func lexRunes(src string) ([]token, error) {
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

// lexStatements holds statements with non-ASCII words, strings, digits and
// spaces, invalid UTF-8 and every token shape.
var lexStatements = []string{
	`stops where ann.poi_category = "café crème" and object = ünïcode-1 limit 3`,
	"stops where near(1.5, ٣.٤, 2) and object = 日本",
	"stops where object　= u1",
	"stops where object = \"\xff\xfe\" limit 2",
	"stops where object = u\xffx",
	"stops join stops on distance <= 1.5e3 and within 1h30m group by ann.k top 10",
	`moves where window(0, 0, 10, 10) and from = "2010-03-15T08:00:00Z"`,
	"stops where x < 3.",
	"stops where ann.k = \"unterminated ü",
	"episodes where object = ß § 1",
	"",
}

func TestLexMatchesRuneLexer(t *testing.T) {
	for _, src := range lexStatements {
		checkLex(t, src)
	}
}

// checkLex fails unless lex and lexRunes agree on src.
func checkLex(t *testing.T, src string) {
	t.Helper()
	got, gerr := lex(src)
	want, werr := lexRunes(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("lex(%q) = %v, %v; the rune lexer makes %v, %v", src, got, gerr, want, werr)
	}
}

// TestErrorOffsetsCountRunes pins that the offsets errors report count
// runes, not bytes, in statements with characters of several bytes (the
// first two offsets would read 33 in bytes).
func TestErrorOffsetsCountRunes(t *testing.T) {
	cases := []struct{ src, want string }{
		{"stops where object = \"日本語\" § limit 2", "unexpected character '§' at offset 27"},
		{"stops where object = ünï limit two", `expected an integer at offset 31, got "two"`},
		{"stops where ann.k = \"€ unterminated", "unterminated string at offset 20"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
}

// BenchmarkParse reports the cost of parsing one statement of each shape.
func BenchmarkParse(b *testing.B) {
	stmts := []string{
		"episodes where from = 2010-03-15T08:00:00Z and to = 2010-03-15T18:00:00Z",
		"stops group by ann.poi_category count top 5",
		"stops join stops on distance <= 200 and within 1h and distinct objects group by object distinct objects top 10",
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range stmts {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
