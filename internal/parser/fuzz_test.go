package parser

import (
	"strings"
	"testing"
)

// FuzzParseTermWithOps reads arbitrary goal text, as a query arriving from
// the wire: the reader must return a term or an error, never panic, and a
// term it returns must render. Plain `go test` runs the seeds below and
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
		_ = tm.String()
	})
}
