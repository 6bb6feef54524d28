package loader

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// consult compiles and links a whole program source onto a fresh machine.
func consult(t *testing.T, src string) *wam.Machine {
	t.Helper()
	m := wam.NewMachine(nil)
	if err := consultInto(m, src); err != nil {
		t.Fatalf("consult: %v", err)
	}
	return m
}

func consultInto(m *wam.Machine, src string) error {
	p := parser.New(src)
	terms, err := p.ReadAll()
	if err != nil {
		return err
	}
	c := compiler.New(compiler.Options{})
	byPred := map[term.Indicator][]compiler.ClauseCode{}
	var order []term.Indicator
	for _, tm := range terms {
		ccs, err := c.CompileClause(tm)
		if err != nil {
			return err
		}
		for _, cc := range ccs {
			if _, ok := byPred[cc.Pred]; !ok {
				order = append(order, cc.Pred)
			}
			byPred[cc.Pred] = append(byPred[cc.Pred], cc)
		}
	}
	for _, pi := range order {
		if _, err := LinkPredicate(m, pi.Name, pi.Arity, byPred[pi], DefaultOptions); err != nil {
			return err
		}
	}
	return nil
}

// query compiles `?- Goal` and returns all solutions as binding maps
// (variable name -> term string).
func query(t *testing.T, m *wam.Machine, goal string) []map[string]string {
	t.Helper()
	out, err := queryErr(m, goal)
	if err != nil {
		t.Fatalf("query %s: %v", goal, err)
	}
	return out
}

func queryErr(m *wam.Machine, goal string) ([]map[string]string, error) {
	body, vars, err := parser.ParseTerm(goal)
	if err != nil {
		return nil, err
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
	ccs, err := c.CompileQuery("$query", vlist, body)
	if err != nil {
		return nil, err
	}
	byPred := map[term.Indicator][]compiler.ClauseCode{}
	for _, cc := range ccs {
		byPred[cc.Pred] = append(byPred[cc.Pred], cc)
	}
	for pi, cs := range byPred {
		if _, err := LinkPredicate(m, pi.Name, pi.Arity, cs, DefaultOptions); err != nil {
			return nil, err
		}
	}
	m.Reset()
	args := make([]wam.Cell, len(vlist))
	for i := range args {
		args[i] = wam.MakeRef(m.NewVar())
	}
	fn := m.Dict.Intern("$query", len(args))
	run := m.Call(fn, args)
	var out []map[string]string
	for {
		ok, err := run.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		sol := map[string]string{}
		for i, n := range names {
			sol[n] = m.DecodeTerm(args[i]).String()
		}
		out = append(out, sol)
	}
}

func bindings(t *testing.T, m *wam.Machine, goal, v string) []string {
	t.Helper()
	var out []string
	for _, sol := range query(t, m, goal) {
		out = append(out, sol[v])
	}
	return out
}

func TestFactsAndRules(t *testing.T) {
	m := consult(t, `
		parent(tom, bob).
		parent(tom, liz).
		parent(bob, ann).
		parent(bob, pat).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	got := bindings(t, m, "grandparent(tom, W)", "W")
	want := []string{"ann", "pat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grandparent(tom, W) = %v, want %v", got, want)
	}
	if n := len(query(t, m, "parent(tom, bob)")); n != 1 {
		t.Fatalf("parent(tom,bob): %d solutions", n)
	}
	if n := len(query(t, m, "parent(bob, tom)")); n != 0 {
		t.Fatalf("parent(bob,tom): %d solutions", n)
	}
}

func TestRecursionAppend(t *testing.T) {
	m := consult(t, `
		append([], L, L).
		append([H|T], L, [H|R]) :- append(T, L, R).
	`)
	got := bindings(t, m, "append([1,2], [3,4], X)", "X")
	if !reflect.DeepEqual(got, []string{"[1,2,3,4]"}) {
		t.Fatalf("append = %v", got)
	}
	// Backwards: enumerate splits.
	sols := query(t, m, "append(A, B, [1,2,3])")
	if len(sols) != 4 {
		t.Fatalf("append splits: %d solutions", len(sols))
	}
	if sols[0]["A"] != "[]" || sols[0]["B"] != "[1,2,3]" {
		t.Fatalf("first split = %v", sols[0])
	}
	if sols[3]["A"] != "[1,2,3]" || sols[3]["B"] != "[]" {
		t.Fatalf("last split = %v", sols[3])
	}
}

func TestNaiveReverse(t *testing.T) {
	m := consult(t, `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
		nrev([], []).
		nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
	`)
	got := bindings(t, m, "nrev([1,2,3,4,5], X)", "X")
	if !reflect.DeepEqual(got, []string{"[5,4,3,2,1]"}) {
		t.Fatalf("nrev = %v", got)
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	m := consult(t, `
		fact(0, 1).
		fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.
	`)
	got := bindings(t, m, "fact(10, F)", "F")
	if !reflect.DeepEqual(got, []string{"3628800"}) {
		t.Fatalf("fact(10) = %v", got)
	}
}

func TestCutSemantics(t *testing.T) {
	m := consult(t, `
		max(X, Y, X) :- X >= Y, !.
		max(_, Y, Y).
	`)
	got := bindings(t, m, "max(3, 7, M)", "M")
	if !reflect.DeepEqual(got, []string{"7"}) {
		t.Fatalf("max(3,7) = %v", got)
	}
	got = bindings(t, m, "max(9, 2, M)", "M")
	if !reflect.DeepEqual(got, []string{"9"}) {
		t.Fatalf("max(9,2) = %v (cut failed to prune)", got)
	}
}

func TestCutAfterCall(t *testing.T) {
	m := consult(t, `
		p(1). p(2). p(3).
		first(X) :- p(X), !.
	`)
	got := bindings(t, m, "first(X)", "X")
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("first(X) = %v", got)
	}
}

func TestIfThenElse(t *testing.T) {
	m := consult(t, `
		classify(X, neg) :- ( X < 0 -> true ; fail ).
		classify(X, pos) :- ( X < 0 -> fail ; true ).
		sgn(X, S) :- ( X > 0 -> S = 1 ; X < 0 -> S = -1 ; S = 0 ).
	`)
	if got := bindings(t, m, "classify(-5, C)", "C"); !reflect.DeepEqual(got, []string{"neg"}) {
		t.Fatalf("classify(-5) = %v", got)
	}
	if got := bindings(t, m, "sgn(42, S)", "S"); !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("sgn(42) = %v", got)
	}
	if got := bindings(t, m, "sgn(-7, S)", "S"); !reflect.DeepEqual(got, []string{"-1"}) {
		t.Fatalf("sgn(-7) = %v", got)
	}
	if got := bindings(t, m, "sgn(0, S)", "S"); !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("sgn(0) = %v", got)
	}
}

func TestDisjunction(t *testing.T) {
	m := consult(t, `
		d(X) :- ( X = a ; X = b ; X = c ).
	`)
	got := bindings(t, m, "d(X)", "X")
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("d(X) = %v", got)
	}
	if len(query(t, m, "d(b)")) != 1 {
		t.Fatal("d(b) should succeed once")
	}
}

func TestCutInsideDisjunction(t *testing.T) {
	// The ! inside the disjunction must cut the clause's choice points,
	// including p's alternatives.
	m := consult(t, `
		p(1). p(2).
		q(X) :- p(X), ( X > 1 -> true ; !, fail ).
		r(X) :- p(X), ( X = 1, ! ; true ).
	`)
	got := bindings(t, m, "q(X)", "X")
	if len(got) != 0 {
		t.Fatalf("q(X) = %v, want no solutions (cut then fail)", got)
	}
	got = bindings(t, m, "r(X)", "X")
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("r(X) = %v, want [1]", got)
	}
}

func TestNegation(t *testing.T) {
	m := consult(t, `
		p(1). p(2).
		notp(X) :- \+ p(X).
	`)
	if len(query(t, m, "notp(3)")) != 1 {
		t.Fatal("\\+ p(3) should succeed")
	}
	if len(query(t, m, "notp(1)")) != 0 {
		t.Fatal("\\+ p(1) should fail")
	}
}

func TestMetaCall(t *testing.T) {
	m := consult(t, `
		p(1). p(2).
		apply(G) :- call(G).
		apply1(G, X) :- call(G, X).
	`)
	if len(query(t, m, "apply(p(1))")) != 1 {
		t.Fatal("call(p(1)) failed")
	}
	got := bindings(t, m, "apply1(p, X)", "X")
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("call(p, X) = %v", got)
	}
}

func TestFirstArgIndexingAvoidsChoicePoints(t *testing.T) {
	src := `
		color(red, warm).
		color(blue, cool).
		color(green, cool).
		color(yellow, warm).
	`
	m := consult(t, src)
	m.ResetStats()
	query(t, m, "color(blue, T)")
	indexed := m.Stats().ChoicePoints

	m2 := wam.NewMachine(nil)
	if err := consultIntoNoIndex(m2, src); err != nil {
		t.Fatal(err)
	}
	m2.ResetStats()
	if _, err := queryErr(m2, "color(blue, T)"); err != nil {
		t.Fatal(err)
	}
	chained := m2.Stats().ChoicePoints

	if indexed >= chained {
		t.Fatalf("indexing should create fewer choice points: indexed=%d chained=%d", indexed, chained)
	}
	if indexed != 0 {
		t.Fatalf("bound first arg with unique key should be deterministic, got %d choice points", indexed)
	}
}

func consultIntoNoIndex(m *wam.Machine, src string) error {
	p := parser.New(src)
	terms, err := p.ReadAll()
	if err != nil {
		return err
	}
	c := compiler.New(compiler.Options{})
	byPred := map[term.Indicator][]compiler.ClauseCode{}
	for _, tm := range terms {
		ccs, err := c.CompileClause(tm)
		if err != nil {
			return err
		}
		for _, cc := range ccs {
			byPred[cc.Pred] = append(byPred[cc.Pred], cc)
		}
	}
	for pi, cs := range byPred {
		if _, err := LinkPredicate(m, pi.Name, pi.Arity, cs, Options{Index: false}); err != nil {
			return err
		}
	}
	return nil
}

func TestIndexingOnIntegersAndStructures(t *testing.T) {
	m := consult(t, `
		f(1, one).
		f(2, two).
		f(g(a), gee).
		f(h(b), aitch).
		f([1], list).
	`)
	if got := bindings(t, m, "f(2, X)", "X"); !reflect.DeepEqual(got, []string{"two"}) {
		t.Fatalf("f(2,X) = %v", got)
	}
	if got := bindings(t, m, "f(g(a), X)", "X"); !reflect.DeepEqual(got, []string{"gee"}) {
		t.Fatalf("f(g(a),X) = %v", got)
	}
	if got := bindings(t, m, "f([1], X)", "X"); !reflect.DeepEqual(got, []string{"list"}) {
		t.Fatalf("f([1],X) = %v", got)
	}
	// Unbound: all five in source order.
	if got := bindings(t, m, "f(_, X)", "X"); len(got) != 5 {
		t.Fatalf("f(_,X) = %v", got)
	}
}

func TestClauseCodeRoundTrip(t *testing.T) {
	c := compiler.New(compiler.Options{})
	tm, _, err := parser.ParseTerm("route(A, B, T) :- conn(A, C, T1), T2 is T1 + 3, route(C, B, T3), T is T2 + T3")
	if err != nil {
		t.Fatal(err)
	}
	ccs, err := c.CompileClause(tm)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range ccs {
		blob := EncodeClause(cc)
		back, err := DecodeClause(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(cc, back) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", cc, back)
		}
	}
}

func TestDecodeCorruptBlob(t *testing.T) {
	if _, err := DecodeClause([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on garbage blob")
	}
	if _, err := DecodeClause(nil); err == nil {
		t.Fatal("expected error on empty blob")
	}
	// A symbol count cut short by the end of the blob still reads as a
	// large partial value (2^21-1 here); it must be refused before it
	// sizes an allocation.
	blob := EncodeClause(compiler.ClauseCode{})
	blob = append(blob[:len(blob)-2], 0xff, 0xff, 0xff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeClause(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected error on a truncated symbol count")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding a truncated symbol count allocated %d bytes", n)
	}
}

func TestLinkedCodeSharedAcrossMachines(t *testing.T) {
	// The same relocatable clause links onto two machines whose
	// dictionaries assign different IDs.
	c := compiler.New(compiler.Options{})
	tm, _, _ := parser.ParseTerm("greet(hello)")
	ccs, _ := c.CompileClause(tm)

	m1 := wam.NewMachine(nil)
	// Skew m2's dictionary so IDs differ.
	m2 := wam.NewMachine(nil)
	for i := 0; i < 100; i++ {
		m2.Dict.Intern("skew", i)
	}
	for _, m := range []*wam.Machine{m1, m2} {
		if _, err := LinkPredicate(m, "greet", 1, ccs, DefaultOptions); err != nil {
			t.Fatal(err)
		}
		sols, err := queryErr(m, "greet(X)")
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 || sols[0]["X"] != "hello" {
			t.Fatalf("greet(X) = %v", sols)
		}
	}
}

func TestEmptyPredicateFails(t *testing.T) {
	m := wam.NewMachine(nil)
	if _, err := LinkPredicate(m, "nothing", 1, nil, DefaultOptions); err != nil {
		t.Fatal(err)
	}
	sols, err := queryErr(m, "nothing(x)")
	if err != nil || len(sols) != 0 {
		t.Fatalf("empty predicate: %v, %v", sols, err)
	}
}

func TestDeepStructures(t *testing.T) {
	m := consult(t, `
		deep(f(g(h(i(j(k(x))))))).
		samepath(f(g(X)), X).
	`)
	if len(query(t, m, "deep(f(g(h(i(j(k(x)))))))")) != 1 {
		t.Fatal("deep structure match failed")
	}
	if len(query(t, m, "deep(f(g(h(i(j(k(y)))))))")) != 0 {
		t.Fatal("deep structure should not match different leaf")
	}
	got := bindings(t, m, "samepath(f(g(42)), X)", "X")
	if !reflect.DeepEqual(got, []string{"42"}) {
		t.Fatalf("samepath = %v", got)
	}
}

func TestVarGoal(t *testing.T) {
	m := consult(t, `
		p(ok).
		runit(G) :- G.
	`)
	got := bindings(t, m, "runit(p(X))", "X")
	if !reflect.DeepEqual(got, []string{"ok"}) {
		t.Fatalf("variable goal = %v", got)
	}
}
