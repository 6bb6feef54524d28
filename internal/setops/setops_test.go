package setops

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/term"
)

func decompile(t *testing.T, src string) Rule {
	t.Helper()
	r, ok := tryDecompile(t, src)
	if !ok {
		t.Fatalf("decompile %q: rejected", src)
	}
	return r
}

func tryDecompile(t *testing.T, src string) (Rule, bool) {
	t.Helper()
	tm, _, err := parser.ParseTerm(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c := compiler.New(compiler.Options{})
	ccs, err := c.CompileClause(tm)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	if len(ccs) != 1 {
		// Auxiliary predicates mean control constructs: not Datalog.
		return Rule{}, false
	}
	return DecompileClause(ccs[0])
}

func TestDecompileFact(t *testing.T) {
	r := decompile(t, "edge(a, b).")
	if len(r.Body) != 0 || r.NVars != 0 {
		t.Fatalf("fact decompiled to %+v", r)
	}
	want := []rel.Value{rel.StringV("a"), rel.StringV("b")}
	for i, a := range r.Head.Args {
		if a.IsVar || !rel.ValueEq(a.Val, want[i]) {
			t.Fatalf("arg %d = %+v, want %v", i, a, want[i])
		}
	}
}

func TestDecompileTypedFacts(t *testing.T) {
	r := decompile(t, "m(1, 2.5, x).")
	if !rel.ValueEq(r.Head.Args[0].Val, rel.IntV(1)) ||
		!rel.ValueEq(r.Head.Args[1].Val, rel.FloatV(2.5)) ||
		!rel.ValueEq(r.Head.Args[2].Val, rel.StringV("x")) {
		t.Fatalf("typed fact decompiled to %+v", r)
	}
}

func TestDecompileRule(t *testing.T) {
	r := decompile(t, "path(X, Y) :- edge(X, Z), path(Z, Y).")
	if len(r.Body) != 2 || r.NVars != 3 {
		t.Fatalf("rule decompiled to %+v", r)
	}
	if !r.Head.Args[0].IsVar || !r.Head.Args[1].IsVar {
		t.Fatalf("head args not vars: %+v", r.Head)
	}
	// Join variable Z is shared between edge's 2nd and path's 1st column.
	if r.Body[0].Args[1].Var != r.Body[1].Args[0].Var {
		t.Fatalf("join variable not shared: %+v", r.Body)
	}
	// Head vars thread through the body.
	if r.Head.Args[0].Var != r.Body[0].Args[0].Var ||
		r.Head.Args[1].Var != r.Body[1].Args[1].Var {
		t.Fatalf("head vars not threaded: %+v", r)
	}
}

func TestDecompileConstantsInRule(t *testing.T) {
	r := decompile(t, "reach(Y) :- path(start, Y).")
	if len(r.Body) != 1 {
		t.Fatalf("decompiled to %+v", r)
	}
	if r.Body[0].Args[0].IsVar || !rel.ValueEq(r.Body[0].Args[0].Val, rel.StringV("start")) {
		t.Fatalf("constant arg lost: %+v", r.Body[0])
	}
}

func TestDecompileRejects(t *testing.T) {
	cases := []string{
		"p(X).",                     // non-ground fact (not range-restricted)
		"p(X) :- q(Y).",             // head var not in body
		"p(f(X)) :- q(X).",          // structure in head
		"p(X) :- q(f(X)).",          // structure in body
		"p([]).",                    // nil constant
		"p(X) :- X is 1 + 1, q(X).", // arithmetic builtin
		"p(X) :- q(X), !.",          // cut
		"p(X) :- q(X) ; r(X).",      // disjunction (aux predicate)
		"p(X) :- \\+ q(X), r(X).",   // negation
		"p(X) :- q(X, _).",          // void body var is fine — but head must bind
	}
	for _, src := range cases[:len(cases)-1] {
		if r, ok := tryDecompile(t, src); ok {
			t.Errorf("decompile %q: accepted %+v, want reject", src, r)
		}
	}
	// The last case is genuinely safe Datalog: p(X) :- q(X, _).
	if _, ok := tryDecompile(t, cases[len(cases)-1]); !ok {
		t.Errorf("decompile %q: rejected, want accept", cases[len(cases)-1])
	}
}

func mkLeaf(t *testing.T, pairs [][2]string) *rel.MemRel {
	t.Helper()
	m := rel.NewMemRel(2)
	for _, p := range pairs {
		m.Insert(rel.Tuple{rel.StringV(p[0]), rel.StringV(p[1])})
	}
	return m
}

func solutions(m *rel.MemRel) []string {
	var out []string
	for _, tp := range m.Tuples() {
		if tp == nil {
			continue // deleted
		}
		s := ""
		for i, v := range tp {
			if i > 0 {
				s += ","
			}
			s += v.String()
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func tcProgram(t *testing.T, edges [][2]string) *Program {
	t.Helper()
	p := NewProgram()
	p.AddLeaf(term.Indicator{Name: "edge", Arity: 2}, mkLeaf(t, edges))
	p.AddRules(term.Indicator{Name: "path", Arity: 2}, []Rule{
		decompile(t, "path(X, Y) :- edge(X, Y)."),
		decompile(t, "path(X, Y) :- edge(X, Z), path(Z, Y)."),
	})
	return p
}

func TestTransitiveClosure(t *testing.T) {
	p := tcProgram(t, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}})
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := solutions(res[term.Indicator{Name: "path", Arity: 2}])
	want := []string{"a,b", "a,c", "a,d", "b,c", "b,d", "c,d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	if st.Iterations < 3 {
		t.Fatalf("iterations = %d, want >= 3 for a 3-hop chain", st.Iterations)
	}
	if st.DeltaTuples != 6 {
		t.Fatalf("delta tuples = %d, want 6", st.DeltaTuples)
	}
}

func TestTransitiveClosureCyclic(t *testing.T) {
	// Tuple-at-a-time WAM evaluation loops forever on a cycle; the
	// set-at-a-time fixpoint terminates.
	p := tcProgram(t, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}})
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res[term.Indicator{Name: "path", Arity: 2}].Len(); n != 9 {
		t.Fatalf("cyclic closure has %d tuples, want 9", n)
	}
}

func TestSameGeneration(t *testing.T) {
	p := NewProgram()
	p.AddLeaf(term.Indicator{Name: "par", Arity: 2}, mkLeaf(t, [][2]string{
		{"b", "a"}, {"c", "a"}, {"d", "b"}, {"e", "c"},
	}))
	node := rel.NewMemRel(1)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		node.Insert(rel.Tuple{rel.StringV(n)})
	}
	p.AddLeaf(term.Indicator{Name: "node", Arity: 1}, node)
	p.AddRules(term.Indicator{Name: "sg", Arity: 2}, []Rule{
		decompile(t, "sg(X, X) :- node(X)."),
		decompile(t, "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP)."),
	})
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := solutions(res[term.Indicator{Name: "sg", Arity: 2}])
	want := []string{"a,a", "b,b", "b,c", "c,b", "c,c", "d,d", "d,e", "e,d", "e,e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sg = %v, want %v", got, want)
	}
}

func TestMutualRecursionStratification(t *testing.T) {
	p := NewProgram()
	p.AddLeaf(term.Indicator{Name: "edge", Arity: 2}, mkLeaf(t, [][2]string{
		{"a", "b"}, {"b", "c"},
	}))
	p.AddRules(term.Indicator{Name: "odd", Arity: 2}, []Rule{
		decompile(t, "odd(X, Y) :- edge(X, Y)."),
		decompile(t, "odd(X, Y) :- edge(X, Z), even(Z, Y)."),
	})
	p.AddRules(term.Indicator{Name: "even", Arity: 2}, []Rule{
		decompile(t, "even(X, Y) :- edge(X, Z), odd(Z, Y)."),
	})
	strata := p.Stratify()
	if len(strata) != 1 || !strata[0].Recursive || len(strata[0].Preds) != 2 {
		t.Fatalf("strata = %+v, want one recursive SCC of 2", strata)
	}
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	odd := solutions(res[term.Indicator{Name: "odd", Arity: 2}])
	if fmt.Sprint(odd) != fmt.Sprint([]string{"a,b", "b,c"}) {
		t.Fatalf("odd = %v", odd)
	}
	even := solutions(res[term.Indicator{Name: "even", Arity: 2}])
	if fmt.Sprint(even) != fmt.Sprint([]string{"a,c"}) {
		t.Fatalf("even = %v", even)
	}
}

func TestNonRecursiveStrata(t *testing.T) {
	p := NewProgram()
	p.AddLeaf(term.Indicator{Name: "edge", Arity: 2}, mkLeaf(t, [][2]string{
		{"a", "b"}, {"b", "c"},
	}))
	p.AddRules(term.Indicator{Name: "hop2", Arity: 2}, []Rule{
		decompile(t, "hop2(X, Y) :- edge(X, Z), edge(Z, Y)."),
	})
	strata := p.Stratify()
	if len(strata) != 1 || strata[0].Recursive {
		t.Fatalf("strata = %+v, want one non-recursive stratum", strata)
	}
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := solutions(res[term.Indicator{Name: "hop2", Arity: 2}])
	if fmt.Sprint(got) != fmt.Sprint([]string{"a,c"}) {
		t.Fatalf("hop2 = %v", got)
	}
	if st.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", st.Iterations)
	}
}

func TestEvalCheckAborts(t *testing.T) {
	p := tcProgram(t, [][2]string{{"a", "b"}, {"b", "c"}})
	var st Stats
	wantErr := fmt.Errorf("interrupted")
	calls := 0
	_, err := p.Eval(&st, func() error {
		calls++
		if calls > 1 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestValidateUnresolved(t *testing.T) {
	p := NewProgram()
	p.AddRules(term.Indicator{Name: "p", Arity: 1}, []Rule{
		decompile(t, "p(X) :- q(X)."),
	})
	var st Stats
	if _, err := p.Eval(&st, nil); err == nil {
		t.Fatal("want error for unresolved predicate q/1")
	}
}

func TestRepeatedVariableSelection(t *testing.T) {
	p := NewProgram()
	p.AddLeaf(term.Indicator{Name: "edge", Arity: 2}, mkLeaf(t, [][2]string{
		{"a", "a"}, {"a", "b"}, {"b", "b"},
	}))
	p.AddRules(term.Indicator{Name: "selfloop", Arity: 1}, []Rule{
		decompile(t, "selfloop(X) :- edge(X, X)."),
	})
	var st Stats
	res, err := p.Eval(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := solutions(res[term.Indicator{Name: "selfloop", Arity: 1}])
	if fmt.Sprint(got) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("selfloop = %v", got)
	}
}
