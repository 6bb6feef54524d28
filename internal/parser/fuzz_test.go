package parser

import (
	"strings"
	"testing"

	"repro/internal/term"
)

// FuzzParseTermWithOps reads arbitrary goal text, as a query arriving from
// the wire: the reader must return a term or an error, never panic, and a
// term it returns must render to text that re-reads, under the same
// operator table, to a variant of the term. Plain `go test` runs the seeds below and
// the pinned inputs under testdata/fuzz; explore further with
//
//	go test ./internal/parser -run '^$' -fuzz FuzzParseTermWithOps -fuzztime 15s
func FuzzParseTermWithOps(f *testing.F) {
	deep := 10000
	for _, seed := range []string{
		// The benchmark's goal shapes.
		"direct(stop_12, stop_13, Line, V)",
		"route(stop_4, stop_97, V)",
		"item(k1234, G, V, Tag)",
		"r42(k7, V)",
		"path(n3_0, X)",
		"sg(t17, Y)",
		"assert_external(schedule2(wline_0, bus, w0_3_a, w0_3_b, 7))",
		"retract_external(schedule2(wline_1, bus, w1_2_b, w1_2_c, 9))",
		// Control constructs, operators, lists, strings, numbers.
		`(p(X) ; X = 4), X > 1, \+ q(X)`,
		"p(X), (X > 1 -> V = big ; V = small)",
		"catch(findall(X-Y, member(X/Y, [a/1, b/2 | T]), L), E, true)",
		`X = "codes", Y = 'quoted atom', Z is -3.5e2 + 0'a - 0x1F`,
		"X = (a ~> b ~> c), X = {a, b}, f(- 1, -(1), - - a)",
		"X = [], Y = '[]', Z = {}, W = '$VAR'(1).",
		// Hostile lines.
		"f(", "f(a,", ")", "]", "[1, 2 | ]", "[a|b|c]", "{", "}", "(", "((a)",
		":- :- a", "a :- ", "= =", ", ,", "| |", "-", "- -", "a b c",
		"'unterminated", `"unterminated`, "0'", "0x", "1e", "1.", "/* open",
		"% only a comment", "", " ", ".", "..", "a. b.", "\x00", "\xff\xfe",
		strings.Repeat("f(", deep) + "a" + strings.Repeat(")", deep),
		strings.Repeat("[", deep) + strings.Repeat("]", deep),
		strings.Repeat("(", deep),
		strings.Repeat("- ", deep) + "1",
		strings.Repeat("a, ", deep) + "a",
		strings.Repeat("a = ", deep) + "a",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ops := NewOpTable()
		if err := ops.Define(200, XFY, "~>"); err != nil {
			t.Fatal(err)
		}
		tm, vars, err := ParseTermWithOps(src, ops)
		if err != nil {
			if tm != nil || vars != nil {
				t.Fatalf("%q: error %v with a result", src, err)
			}
			return
		}
		if tm == nil {
			t.Fatalf("%q: no term and no error", src)
		}
		text := tm.String()
		back, _, err := ParseTermWithOps(text, ops)
		if err != nil {
			t.Fatalf("%q: rendered as %q, which does not re-read: %v", src, text, err)
		}
		if !variant(tm, back, map[*term.Var]*term.Var{}, map[*term.Var]*term.Var{}) {
			t.Fatalf("%q: rendered as %q, which re-reads as %q", src, text, back)
		}
	})
}

// variant reports whether a and b are equal up to a one-to-one renaming of
// variables; ab and ba hold the renaming so far.
func variant(a, b term.Term, ab, ba map[*term.Var]*term.Var) bool {
	switch x := a.(type) {
	case *term.Var:
		y, ok := b.(*term.Var)
		if !ok {
			return false
		}
		if ab[x] == nil && ba[y] == nil {
			ab[x], ba[y] = y, x
		}
		return ab[x] == y && ba[y] == x
	case *term.Compound:
		y, ok := b.(*term.Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !variant(x.Args[i], y.Args[i], ab, ba) {
				return false
			}
		}
		return true
	}
	return term.Equal(a, b)
}
