package parser

import (
	"strings"
	"testing"

	"repro/internal/term"
)

func mustParse(t *testing.T, src string) term.Term {
	t.Helper()
	tm, _, err := ParseTerm(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return tm
}

func TestCanonicalRoundTrip(t *testing.T) {
	// src parses to a term whose canonical String re-parses to an equal term.
	cases := []string{
		"foo",
		"foo(a,b,c)",
		"[1,2,3]",
		"[a|T]",
		"f(g(h(x)))",
		"'quoted atom'(1)",
		"{a}",
		"-42",
		"3.5",
		"f('/*')",
		"'/**'",
	}
	for _, src := range cases {
		t1 := mustParse(t, src)
		t2 := mustParse(t, t1.String())
		// Variables differ by pointer; compare strings instead.
		if t1.String() != t2.String() {
			t.Errorf("round trip %q: %q != %q", src, t1, t2)
		}
	}
}

func TestOperatorParsing(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1+2", "+(1,2)"},
		{"1+2+3", "+(+(1,2),3)"},     // yfx left assoc
		{"1+2*3", "+(1,*(2,3))"},     // precedence
		{"(1+2)*3", "*(+(1,2),3)"},   // parens
		{"a:-b,c", ":-(a,','(b,c))"}, // clause
		{"a:-b;c", ":-(a,;(b,c))"},   // disjunction
		{"a->b;c", ";(->(a,b),c)"},   // if-then-else
		{"X = Y", "=(X,Y)"},
		{"X is 1+2", "is(X,+(1,2))"},
		{"- 1", "-(1)"}, // prefix minus on spaced literal
		{"-(1)", "-(1)"},
		{"a = -b", "=(a,-(b))"},
		{"\\+ a", "\\+(a)"},
		{"2**3", "**(2,3)"},
		{"2^3^4", "^(2,^(3,4))"}, // xfy right assoc
		{"a, b -> c ; d", ";(->(','(a,b),c),d)"},
		{"f(a, (b,c))", "f(a,','(b,c))"},
		{"[a,b|C]", "'.'(a,'.'(b,C))"},
		{"1 - 2 - 3", "-(-(1,2),3)"},
	}
	for _, c := range cases {
		tm := mustParse(t, c.src)
		got := canonical(tm)
		if got != c.want {
			t.Errorf("parse %q = %s, want %s", c.src, got, c.want)
		}
	}
}

// canonical renders without list/curly sugar so structure is visible.
func canonical(t term.Term) string {
	switch x := t.(type) {
	case *term.Compound:
		var b strings.Builder
		b.WriteString(term.Atom(x.Functor).String())
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(canonical(a))
		}
		b.WriteByte(')')
		return b.String()
	case *term.Var:
		return x.Name
	default:
		return t.String()
	}
}

func TestVariableSharing(t *testing.T) {
	tm, vars, err := ParseTerm("f(X, g(X, Y))")
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 {
		t.Fatalf("vars = %v", vars)
	}
	c := tm.(*term.Compound)
	inner := c.Args[1].(*term.Compound)
	if c.Args[0] != inner.Args[0] {
		t.Error("X not shared")
	}
	if c.Args[0] == inner.Args[1] {
		t.Error("X and Y conflated")
	}
}

func TestAnonymousVars(t *testing.T) {
	tm := mustParse(t, "f(_, _)")
	c := tm.(*term.Compound)
	if c.Args[0] == c.Args[1] {
		t.Error("anonymous variables must be distinct")
	}
}

func TestReadAll(t *testing.T) {
	p := New("a. b(1). c :- a, b(X).")
	ts, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("read %d terms", len(ts))
	}
}

func TestReadTermEOF(t *testing.T) {
	p := New("  % just a comment\n")
	tm, vars, err := p.ReadTerm()
	if err != nil || tm != nil || vars != nil {
		t.Fatalf("EOF read = (%v,%v,%v)", tm, vars, err)
	}
}

func TestStringsAsCodes(t *testing.T) {
	tm := mustParse(t, `"ab"`)
	items, ok := term.UnpackList(tm)
	if !ok || len(items) != 2 || items[0] != term.Int('a') || items[1] != term.Int('b') {
		t.Fatalf("string parsed to %v", tm)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"f(a",
		"f(a,)",
		"[a,]",
		"f(a))",
		"a b",
		"1 +",
		")",
	}
	for _, src := range bad {
		if _, _, err := ParseTerm(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

func TestUserOps(t *testing.T) {
	ops := NewOpTable()
	if err := ops.Define(700, XFX, "~>"); err != nil {
		t.Fatal(err)
	}
	tm, _, err := ParseTermWithOps("a ~> b", ops)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(tm) != "~>(a,b)" {
		t.Fatalf("got %s", canonical(tm))
	}
	// Removing the operator makes it a syntax error.
	if err := ops.Define(0, XFX, "~>"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseTermWithOps("a ~> b", ops); err == nil {
		t.Error("expected error after operator removal")
	}
}

func TestOpTableGuards(t *testing.T) {
	ops := NewOpTable()
	if err := ops.Define(1300, XFX, "bad"); err == nil {
		t.Error("priority out of range accepted")
	}
	if err := ops.Define(500, XFX, ","); err == nil {
		t.Error("redefinition of ',' accepted")
	}
	if err := ops.Define(500, XFX, ""); err == nil {
		t.Error("empty operator accepted")
	}
}

func TestParseOpType(t *testing.T) {
	for _, s := range []string{"xfx", "xfy", "yfx", "fy", "fx", "xf", "yf"} {
		typ, err := ParseOpType(s)
		if err != nil {
			t.Errorf("ParseOpType(%q): %v", s, err)
		}
		if typ.String() != s {
			t.Errorf("round trip %q -> %v", s, typ)
		}
	}
	if _, err := ParseOpType("zfz"); err == nil {
		t.Error("invalid op type accepted")
	}
}

func TestNestedClause(t *testing.T) {
	tm := mustParse(t, "route(A,B,T) :- conn(A,B,T1), T is T1 + 5, \\+ closed(B)")
	want := ":-(route(A,B,T),','(conn(A,B,T1),','(is(T,+(T1,5)),\\+(closed(B)))))"
	if canonical(tm) != want {
		t.Fatalf("got  %s\nwant %s", canonical(tm), want)
	}
}

func TestBarAsSemicolon(t *testing.T) {
	tm := mustParse(t, "(a | b)")
	if canonical(tm) != ";(a,b)" {
		t.Fatalf("got %s", canonical(tm))
	}
}

func TestCloneOps(t *testing.T) {
	a := NewOpTable()
	b := a.Clone()
	if err := b.Define(700, XFX, "~~>"); err != nil {
		t.Fatal(err)
	}
	if a.IsOperator("~~>") {
		t.Error("clone mutated original")
	}
	if !b.IsOperator("~~>") {
		t.Error("clone lost definition")
	}
}
