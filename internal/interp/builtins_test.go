package interp

import (
	"reflect"
	"testing"

	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// expect1 asserts the goal has exactly one solution binding v to want.
func expect1(t *testing.T, in *Interp, goal, v, want string) {
	t.Helper()
	got := solutions(t, in, goal, v)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("%s = %v, want [%s]", goal, got, want)
	}
}

func expectYes(t *testing.T, in *Interp, goal string) {
	t.Helper()
	if got := solutions(t, in, goal, ""); len(got) != 1 {
		t.Fatalf("%s = %v, want one solution", goal, got)
	}
}

func expectNo(t *testing.T, in *Interp, goal string) {
	t.Helper()
	if got := solutions(t, in, goal, ""); len(got) != 0 {
		t.Fatalf("%s = %v, want failure", goal, got)
	}
}

func TestInterpArithmetic(t *testing.T) {
	in := New()
	cases := map[string]string{
		"X is 2 + 3":         "5",
		"X is 7 / 2":         "3.5",
		"X is 6 / 3":         "2",
		"X is 7 // 2":        "3",
		"X is 7 mod 3":       "1",
		"X is -7 mod 3":      "2",
		"X is -7 rem 3":      "-1",
		"X is min(1, 2)":     "1",
		"X is max(1, 2)":     "2",
		"X is abs(-4)":       "4",
		"X is abs(-4.5)":     "4.5",
		"X is sign(9)":       "1",
		"X is 2 ^ 8":         "256",
		"X is 2 ** 3":        "8.0",
		"X is 5 >> 1":        "2",
		"X is 1 << 4":        "16",
		"X is truncate(9.7)": "9",
		"X is float(2)":      "2.0",
		"X is sqrt(4.0)":     "2.0",
		"X is - 3":           "-3",
		"X is + 3":           "3",
	}
	for goal, want := range cases {
		expect1(t, in, goal, "X", want)
	}
	g := mustParseT(t, "X is 1 / 0")
	if err := in.Solve(g, nil, func(*Env) bool { return true }); err == nil {
		t.Error("zero divisor not detected")
	}
}

func TestInterpTypeTestsAndOrder(t *testing.T) {
	in := New()
	expectYes(t, in, "var(_), nonvar(a), atom(x), number(1), integer(2), float(1.5)")
	expectYes(t, in, "atomic(a), compound(f(1)), callable(g), ground(f(a))")
	expectNo(t, in, "atom(1)")
	expectNo(t, in, "ground(f(_))")
	expectYes(t, in, "is_list([1,2]), \\+ is_list([1|_])")
	expectYes(t, in, "a @< b, f(1) @> a, 1 @=< 1, b @>= b, x == x, x \\== y")
	expect1(t, in, "compare(O, 1, 2)", "O", "<")
}

func TestInterpAtomBuiltins(t *testing.T) {
	in := New()
	expect1(t, in, "atom_codes(ab, L)", "L", "[97,98]")
	expect1(t, in, "atom_codes(A, [99])", "A", "c")
	expect1(t, in, "atom_number('42', N)", "N", "42")
	expect1(t, in, "atom_number(A, 3.5)", "A", "'3.5'")
	expectNo(t, in, "atom_number(xyz, _)")
}

func TestInterpTermConstruction(t *testing.T) {
	in := New()
	expect1(t, in, "functor(f(a,b), N, _)", "N", "f")
	expect1(t, in, "functor(T, g, 1)", "T", "g(_F0)")
	expect1(t, in, "functor(T, atom, 0)", "T", "atom")
	expect1(t, in, "arg(2, f(a,b,c), X)", "X", "b")
	expectNo(t, in, "arg(9, f(a), _)")
	expect1(t, in, "f(1,2) =.. L", "L", "[f,1,2]")
	expect1(t, in, "T =.. [h, x]", "T", "h(x)")
	expect1(t, in, "3 =.. L", "L", "[3]")
	expect1(t, in, "copy_term(f(X, X), C), C = f(1, One)", "One", "1")
}

func TestInterpListBuiltins(t *testing.T) {
	in := New()
	expect1(t, in, "length([a,b], N)", "N", "2")
	expect1(t, in, "length(L, 2)", "L", "[_L0,_L1]")
	expect1(t, in, "msort([2,1,1], L)", "L", "[1,1,2]")
	expect1(t, in, "sort([2,1,1], L)", "L", "[1,2]")
	expect1(t, in, "forall(member(X, [1,2,3]), X > 0), R = ok", "R", "ok")
	expectNo(t, in, "forall(member(X, [1,-2]), X > 0)")
}

func TestInterpControl(t *testing.T) {
	in := load(t, `
		p(1). p(2).
		once_p(X) :- p(X), !.
	`)
	expect1(t, in, "once_p(X)", "X", "1")
	expect1(t, in, "( p(9) -> R = then ; R = else )", "R", "else")
	expect1(t, in, "( p(1) -> R = then ; R = else )", "R", "then")
	got := solutions(t, in, "( X = a ; X = b )", "X")
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("disjunction = %v", got)
	}
	expectYes(t, in, "not(p(3))")
	expectNo(t, in, "\\+ p(1)")
}

func TestInterpAssertFamilies(t *testing.T) {
	in := New()
	expectYes(t, in, "assertz(zz(1)), asserta(zz(0)), assert(zz(2))")
	got := solutions(t, in, "zz(X)", "X")
	if !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Fatalf("assert order = %v", got)
	}
	expectYes(t, in, "retract(zz(1))")
	got = solutions(t, in, "zz(X)", "X")
	if !reflect.DeepEqual(got, []string{"0", "2"}) {
		t.Fatalf("after retract = %v", got)
	}
	expectNo(t, in, "retract(zz(9))")
}

// TestInterpDirectivesAndClauses: Assert refuses a directive, Consult runs
// dynamic/1 (before or after the clauses it declares) and refuses any other
// directive, clause/2 enumerates a predicate's clauses and retract/1 keeps
// the bindings of the clause it removes.
func TestInterpDirectivesAndClauses(t *testing.T) {
	consult := func(src string) (*Interp, error) {
		terms, err := parser.New(src).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		in := New()
		return in, in.Consult(terms)
	}
	if err := New().Assert(mustParseT(t, ":- dynamic(c/0)")); err == nil {
		t.Fatal("Assert stored a directive")
	}
	if _, err := consult(":- initialization(main)."); err == nil {
		t.Fatal("Consult ran a directive other than dynamic/1")
	}
	for _, src := range []string{":- dynamic(c/1). c(1). c(2). :- dynamic(e/0).", "c(1). c(2). :- dynamic(c/1). :- dynamic(e/0)."} {
		in, err := consult(src + " r(X) :- c(X), X > 1.")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := solutions(t, in, "c(X)", "X"); !reflect.DeepEqual(got, []string{"1", "2"}) {
			t.Fatalf("%s: c(X) = %v", src, got)
		}
		expectNo(t, in, "e")
		if got := solutions(t, in, "clause(c(X), true)", "X"); !reflect.DeepEqual(got, []string{"1", "2"}) {
			t.Fatalf("%s: clause(c(X), true) = %v", src, got)
		}
		expectYes(t, in, "clause(r(Y), (c(Z), W > 1)), Y == Z, Z == W")
		expect1(t, in, "retract(c(X))", "X", "1")
		if got := solutions(t, in, "c(X)", "X"); !reflect.DeepEqual(got, []string{"2"}) {
			t.Fatalf("%s: c(X) after retract = %v", src, got)
		}
	}
}

func TestInterpSolveOnce(t *testing.T) {
	in := load(t, "p(1). p(2).")
	g := mustParseT(t, "p(X)")
	found, err := in.SolveOnce(g, nil)
	if err != nil || !found {
		t.Fatalf("SolveOnce: %v %v", found, err)
	}
	g = mustParseT(t, "p(9)")
	found, err = in.SolveOnce(g, nil)
	if err != nil || found {
		t.Fatalf("SolveOnce absent: %v %v", found, err)
	}
}

// clauseCount returns the number of clauses the store holds for p.
func clauseCount(in *Interp, p term.Indicator) int {
	cs, _ := in.Store.Clauses(p)
	return len(cs)
}

func TestInterpPredicatesListing(t *testing.T) {
	in := load(t, "alpha(1). beta(2).")
	if a, b := clauseCount(in, pi("alpha", 1)), clauseCount(in, pi("beta", 1)); a != 1 || b != 1 {
		t.Fatalf("clauses of alpha/1, beta/1 = %d, %d", a, b)
	}
	expectYes(t, in, "append([a], [b], [a, b])") // the library, beside the store
	in.Store.Abolish(pi("alpha", 1))
	if clauseCount(in, pi("alpha", 1)) != 0 {
		t.Fatal("Abolish left clauses")
	}
}

func TestInterpExternalResolver(t *testing.T) {
	in := New()
	// The undefined-predicate hook answers ext/1 as a generator producing
	// ext(1), ext(2), ext(3), and knows no other predicate.
	in.OnUndefined = func(goal term.Term, env *Env, emit func() bool) ([]Clause, bool, error) {
		if goal.Indicator() != pi("ext", 1) {
			return nil, false, nil
		}
		for i := 1; i <= 3; i++ {
			mark := env.Mark()
			if env.Unify(goal, term.Comp("ext", term.Int(i))) {
				if !emit() {
					return nil, true, nil
				}
			}
			env.Undo(mark)
		}
		return nil, true, nil
	}
	got := solutions(t, in, "ext(X)", "X")
	if !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Fatalf("external = %v", got)
	}
	// Bound call filters through unification.
	expectYes(t, in, "ext(2)")
	expectNo(t, in, "ext(9)")
	// Cut is absorbed at the external call boundary.
	expect1(t, in, "ext(X), !", "X", "1")
}

// TestInterpCatchThrow: catch/3 catches a ball thrown, or an existence
// error raised, while its goal runs, with the goal's bindings undone; a
// ball raised once the goal has exited passes it by.
func TestInterpCatchThrow(t *testing.T) {
	in := New()
	expect1(t, in, "catch(throw(x), E, true)", "E", "x")
	expect1(t, in, "catch(nope(1), error(existence_error(procedure, P), _), true)", "P", "/(nope,1)")
	expect1(t, in, "catch((X = 1, throw(e)), e, Y = X), var(X)", "Y", "X")
	if got := solutions(t, in, "catch(member(X, [1, 2, 3]), _, true), X > 1", "X"); !reflect.DeepEqual(got, []string{"2", "3"}) {
		t.Fatalf("backtracking into the caught goal = %v, want [2 3]", got)
	}
	// Uncaught: a catcher that does not unify, a goal that has exited.
	for goal, want := range map[string]term.Atom{
		"catch(throw(x), y, true)":                 "x",
		"catch(true, _, assert(caught)), throw(y)": "y",
	} {
		g, _, err := parser.ParseTerm(goal)
		if err != nil {
			t.Fatal(err)
		}
		err = in.Solve(g, nil, func(*Env) bool { return true })
		if ball, ok := err.(*wam.ErrBall); !ok || ball.Term != want {
			t.Fatalf("%s: %v, want %s uncaught", goal, err, want)
		}
	}
	if n := clauseCount(in, pi("caught", 0)); n != 0 {
		t.Fatalf("recovery ran %d times for a ball thrown after the goal exited", n)
	}
}
