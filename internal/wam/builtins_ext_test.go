package wam_test

// Behavioural coverage of the builtin predicate suite and arithmetic,
// driven through the full compile-link-execute pipeline.

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/loader"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// machine compiles a program and returns the machine.
func machine(t *testing.T, src string) *wam.Machine {
	t.Helper()
	m := wam.NewMachine(nil)
	if src != "" {
		consultInto(t, m, src)
	}
	return m
}

func consultInto(t *testing.T, m *wam.Machine, src string) {
	t.Helper()
	p := parser.New(src)
	terms, err := p.ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := compiler.New(compiler.Options{})
	byPred := map[term.Indicator][]compiler.ClauseCode{}
	for _, tm := range terms {
		ccs, err := c.CompileClause(tm)
		if err != nil {
			t.Fatalf("compile %s: %v", tm, err)
		}
		for _, cc := range ccs {
			byPred[cc.Pred] = append(byPred[cc.Pred], cc)
		}
	}
	for pi, cs := range byPred {
		if _, err := loader.LinkPredicate(m, pi.Name, pi.Arity, cs, loader.DefaultOptions); err != nil {
			t.Fatalf("link %s: %v", pi, err)
		}
	}
}

// ask runs a goal and returns each solution's bindings rendered
// name=value, comma-joined with names sorted.
func ask(t *testing.T, m *wam.Machine, goal string) ([]string, error) {
	t.Helper()
	body, vars, err := parser.ParseTerm(goal)
	if err != nil {
		t.Fatalf("parse goal %q: %v", goal, err)
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	vlist := make([]*term.Var, len(names))
	for i, n := range names {
		vlist[i] = vars[n]
	}
	c := compiler.New(compiler.Options{})
	ccs, err := c.CompileQuery("$q", vlist, body)
	if err != nil {
		t.Fatalf("compile goal %q: %v", goal, err)
	}
	byPred := map[term.Indicator][]compiler.ClauseCode{}
	for _, cc := range ccs {
		byPred[cc.Pred] = append(byPred[cc.Pred], cc)
	}
	for pi, cs := range byPred {
		if _, err := loader.LinkPredicate(m, pi.Name, pi.Arity, cs, loader.DefaultOptions); err != nil {
			t.Fatalf("link: %v", err)
		}
	}
	m.Reset()
	args := make([]wam.Cell, len(vlist))
	for i := range args {
		args[i] = wam.MakeRef(m.NewVar())
	}
	var run wam.Run
	m.Call(&run, m.Dict.Intern("$q", len(args)), args)
	var out []string
	for {
		ok, err := run.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = n + "=" + m.DecodeTerm(args[i]).String()
		}
		out = append(out, strings.Join(parts, ","))
	}
}

func expectOne(t *testing.T, m *wam.Machine, goal, want string) {
	t.Helper()
	got, err := ask(t, m, goal)
	if err != nil {
		t.Fatalf("%s: %v", goal, err)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("%s = %v, want [%s]", goal, got, want)
	}
}

func expectFail(t *testing.T, m *wam.Machine, goal string) {
	t.Helper()
	got, err := ask(t, m, goal)
	if err != nil {
		t.Fatalf("%s: %v", goal, err)
	}
	if len(got) != 0 {
		t.Fatalf("%s = %v, want failure", goal, got)
	}
}

func expectError(t *testing.T, m *wam.Machine, goal string) {
	t.Helper()
	if _, err := ask(t, m, goal); err == nil {
		t.Fatalf("%s: expected error", goal)
	}
}

func TestArithmeticFunctions(t *testing.T) {
	m := machine(t, "")
	cases := map[string]string{
		"X is 2 + 3":                   "X=5",
		"X is 2 - 3":                   "X=-1",
		"X is 2 * 3":                   "X=6",
		"X is 7 / 2":                   "X=3.5",
		"X is 6 / 2":                   "X=3",
		"X is 7 // 2":                  "X=3",
		"X is -7 // 2":                 "X=-3",
		"X is -7 div 2":                "X=-4",
		"X is 7 mod 3":                 "X=1",
		"X is -7 mod 3":                "X=2",
		"X is -7 rem 3":                "X=-1",
		"X is min(3, 5)":               "X=3",
		"X is max(3, 5)":               "X=5",
		"X is abs(-9)":                 "X=9",
		"X is sign(-3)":                "X=-1",
		"X is 2 ** 10":                 "X=1024.0",
		"X is 2 ^ 10":                  "X=1024",
		"X is 5 >> 1":                  "X=2",
		"X is 5 << 1":                  "X=10",
		"X is 12 /\\ 10":               "X=8",
		"X is 12 \\/ 10":               "X=14",
		"X is 12 xor 10":               "X=6",
		"X is \\ 0":                    "X=-1",
		"X is gcd(12, 18)":             "X=6",
		"X is truncate(3.7)":           "X=3",
		"X is round(3.5)":              "X=4",
		"X is ceiling(3.1)":            "X=4",
		"X is floor(3.9)":              "X=3",
		"X is float(3)":                "X=3.0",
		"X is integer(3.6)":            "X=4",
		"X is sqrt(16.0)":              "X=4.0",
		"X is float_integer_part(2.5)": "X=2.0",
		"X is abs(2.5 - 5.0)":          "X=2.5",
		"X is succ(4)":                 "X=5",
		"X is msb(8)":                  "X=3",
	}
	for goal, want := range cases {
		expectOne(t, m, goal, want)
	}
	// pi and e evaluate to floats.
	if got, _ := ask(t, m, "X is pi, X > 3.14, X < 3.15"); len(got) != 1 {
		t.Error("pi out of range")
	}
	expectError(t, m, "X is 1 / 0")
	expectError(t, m, "X is 1 // 0")
	expectError(t, m, "X is foo + 1")
	expectError(t, m, "X is Y + 1")
	expectError(t, m, "X is unknown_fn(1, 2)")
}

func TestArithmeticComparisons(t *testing.T) {
	m := machine(t, "")
	for _, ok := range []string{
		"1 + 1 =:= 2", "1 =\\= 2", "1 < 2", "2 > 1", "1 =< 1", "2 >= 2",
		"1.5 < 2", "3 > 2.5",
	} {
		if got, err := ask(t, m, ok); err != nil || len(got) != 1 {
			t.Errorf("%s should succeed (%v, %v)", ok, got, err)
		}
	}
	for _, bad := range []string{"1 =:= 2", "2 < 1", "1 > 1", "2 =< 1"} {
		expectFail(t, m, bad)
	}
}

func TestTypeTests(t *testing.T) {
	m := machine(t, "")
	succeed := []string{
		"var(_)", "nonvar(a)", "atom(foo)", "number(1)", "number(1.5)",
		"integer(3)", "float(2.5)", "atomic(a)", "atomic(1)",
		"compound(f(1))", "compound([1])", "callable(foo)", "callable(f(x))",
		"is_list([1,2])", "is_list([])", "ground(f(1, a))",
	}
	for _, g := range succeed {
		if got, err := ask(t, m, g); err != nil || len(got) != 1 {
			t.Errorf("%s should succeed (%v, %v)", g, got, err)
		}
	}
	fail := []string{
		"var(a)", "nonvar(_)", "atom(1)", "atom(f(1))", "number(a)",
		"integer(1.5)", "float(3)", "atomic(f(1))", "compound(a)",
		"callable(1)", "is_list([1|_])", "ground(f(_))",
	}
	for _, g := range fail {
		expectFail(t, m, g)
	}
}

func TestTermOrderBuiltins(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "compare(O, 1, 2)", "O=<")
	expectOne(t, m, "compare(O, b, a)", "O=>")
	expectOne(t, m, "compare(O, f(1), f(1))", "O==")
	for _, g := range []string{
		"a @< b", "f(1) @> a", "1 @< a", "1.5 @< 2", "a @=< a", "b @>= a",
		"f(a) == f(a)", "f(a) \\== f(b)",
	} {
		if got, err := ask(t, m, g); err != nil || len(got) != 1 {
			t.Errorf("%s should succeed (%v %v)", g, got, err)
		}
	}
}

func TestAtomBuiltins(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "atom_codes(abc, L)", "L=[97,98,99]")
	expectOne(t, m, "atom_codes(A, [104,105])", "A=hi")
	expectOne(t, m, "atom_codes(123, L)", "L=[49,50,51]")
	expectOne(t, m, "atom_chars(abc, L)", "L=[a,b,c]")
	expectOne(t, m, "atom_chars(A, [h,i])", "A=hi")
	expectOne(t, m, "char_code(a, X)", "X=97")
	expectOne(t, m, "char_code(C, 98)", "C=b")
	expectOne(t, m, "atom_length(hello, N)", "N=5")
	expectOne(t, m, "atom_concat(foo, bar, X)", "X=foobar")
	expectOne(t, m, "atom_concat(foo, X, foobar)", "X=bar")
	expectOne(t, m, "atom_concat(X, bar, foobar)", "X=foo")
	expectFail(t, m, "atom_concat(zzz, _, foobar)")
	// Nondeterministic split.
	got, err := ask(t, m, "atom_concat(A, B, ab)")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A='',B=ab", "A=a,B=b", "A=ab,B=''"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split = %v", got)
	}
	expectOne(t, m, "number_codes(42, L)", "L=[52,50]")
	expectOne(t, m, "number_codes(N, [52,50])", "N=42")
	expectOne(t, m, "number_codes(N, [51,46,53])", "N=3.5")
	expectOne(t, m, "atom_number('17', N)", "N=17")
	expectOne(t, m, "atom_number(A, 17)", "A='17'")
	expectFail(t, m, "atom_number(hello, _)")
}

func TestTermConstruction(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "functor(f(a,b), N, A), R = N/A", "A=2,N=f,R=/(f,2)")
	expectOne(t, m, "functor(T, f, 2), T = f(X, Y)", "T=f(_G1,_G2),X=_G1,Y=_G2")
	expectOne(t, m, "functor(T, foo, 0)", "T=foo")
	expectOne(t, m, "functor(atom, N, A), R = N/A", "A=0,N=atom,R=/(atom,0)")
	expectOne(t, m, "functor(7, N, A), R = N/A", "A=0,N=7,R=/(7,0)")
	expectOne(t, m, "functor([a], N, A), R = N/A", "A=2,N='.',R=/('.',2)")
	expectOne(t, m, "arg(1, f(a,b), X)", "X=a")
	expectFail(t, m, "arg(3, f(a,b), _)")
	expectFail(t, m, "arg(0, f(a,b), _)")
	expectOne(t, m, "f(a,b) =.. L", "L=[f,a,b]")
	expectOne(t, m, "T =.. [g, 1]", "T=g(1)")
	expectOne(t, m, "T =.. [only]", "T=only")
	expectOne(t, m, "[a|b] =.. L", "L=['.',a,b]")
	expectOne(t, m, "7 =.. L", "L=[7]")
	expectOne(t, m, "T =.. ['.', h, t]", "T=[h|t]")
}

func TestListBuiltins(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "length([a,b,c], N)", "N=3")
	expectOne(t, m, "length(L, 2), L = [x, y]", "L=[x,y]")
	expectOne(t, m, "msort([3,1,2,1], L)", "L=[1,1,2,3]")
	expectOne(t, m, "sort([3,1,2,1], L)", "L=[1,2,3]")
	expectOne(t, m, "sort([b, 2, a, 1.5, f(x), _], [V|T]), var(V), T = [1.5, 2, a, b, f(x)]",
		"T=[1.5,2,a,b,f(x)],V=_G1")
	expectOne(t, m, "keysort([b-2, a-1, b-1], L)", "L=[-(a,1),-(b,2),-(b,1)]")
	expectError(t, m, "keysort([notapair], _)")
	expectError(t, m, "length(_, _)")
}

func TestUnificationBuiltins(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "X = f(Y), Y = 1", "X=f(1),Y=1")
	expectFail(t, m, "a = b")
	expectFail(t, m, "f(X, X) = f(1, 2)")
	if got, _ := ask(t, m, "a \\= b"); len(got) != 1 {
		t.Error("a \\= b should succeed")
	}
	expectFail(t, m, "X \\= Y")
	// Occurs check.
	expectFail(t, m, "unify_with_occurs_check(X, f(X))")
	if got, _ := ask(t, m, "unify_with_occurs_check(X, f(1))"); len(got) != 1 {
		t.Error("occurs-check unify of acyclic failed")
	}
	// Plain = builds a rational tree; cyclic_term detects it.
	if got, _ := ask(t, m, "X = f(X), cyclic_term(X)"); len(got) != 1 {
		t.Error("cyclic term not detected")
	}
}

func TestSuccPlus(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "succ(3, X)", "X=4")
	expectOne(t, m, "succ(X, 4)", "X=3")
	expectFail(t, m, "succ(_, 0)")
	expectError(t, m, "succ(_, _)")
	expectOne(t, m, "plus(2, 3, X)", "X=5")
	expectOne(t, m, "plus(2, X, 5)", "X=3")
	expectOne(t, m, "plus(X, 3, 5)", "X=2")
	expectError(t, m, "plus(_, _, 5)")
}

func TestCopyTermSharing(t *testing.T) {
	m := machine(t, "")
	expectOne(t, m, "copy_term(f(X, X, Y), C), C = f(1, Z, 2)", "C=f(1,1,2),X=_G1,Y=_G2,Z=1")
}

func TestWriteOutput(t *testing.T) {
	m := machine(t, "")
	var buf bytes.Buffer
	m.Out = &buf
	if _, err := ask(t, m, "write(f(1, [a])), nl, tab(3), write(done)"); err != nil {
		t.Fatal(err)
	}
	want := "f(1,[a])\n   done"
	if buf.String() != want {
		t.Fatalf("output %q, want %q", buf.String(), want)
	}
}

func TestHaltStopsSession(t *testing.T) {
	m := machine(t, "")
	_, err := ask(t, m, "halt")
	if err != wam.ErrHalted {
		t.Fatalf("halt returned %v", err)
	}
}

func TestBetweenModes(t *testing.T) {
	m := machine(t, "")
	got, _ := ask(t, m, "between(2, 4, X)")
	if !reflect.DeepEqual(got, []string{"X=2", "X=3", "X=4"}) {
		t.Fatalf("between = %v", got)
	}
	if got, _ := ask(t, m, "between(1, 3, 2)"); len(got) != 1 {
		t.Error("between test mode failed")
	}
	expectFail(t, m, "between(1, 3, 7)")
	expectFail(t, m, "between(3, 1, _)")
	expectError(t, m, "between(a, 3, _)")
}

func TestMetaCallErrors(t *testing.T) {
	m := machine(t, "")
	expectError(t, m, "call(_)")
	expectError(t, m, "call(1)")
	expectError(t, m, "call([a])")
}

func TestCutViaMetacall(t *testing.T) {
	// call(!) is a local no-op cut per ISO: alternatives outside survive.
	m := machine(t, "p(1). p(2).")
	got, _ := ask(t, m, "p(X), call(!)")
	if !reflect.DeepEqual(got, []string{"X=1", "X=2"}) {
		t.Fatalf("call(!) pruned outer alternatives: %v", got)
	}
}
