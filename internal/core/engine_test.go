package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/term"
)

func mustParseCore(t *testing.T, src string) term.Term {
	t.Helper()
	tm, _, err := parser.ParseTerm(src)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// newSession opens a private knowledge base with opts and one session over
// it; both are closed when the test ends.
func newSession(t *testing.T, opts Options) *Session {
	t.Helper()
	kb, err := OpenKB(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func values(t *testing.T, s *Session, q, v string) []string {
	t.Helper()
	sols, err := s.QueryAll(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	var out []string
	for _, s := range sols {
		out = append(out, s[v].String())
	}
	return out
}

func TestConsultAndQuery(t *testing.T) {
	e := newSession(t, Options{})
	err := e.Consult(`
		parent(tom, bob). parent(tom, liz).
		parent(bob, ann). parent(bob, pat).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "grandparent(tom, W)", "W")
	if !reflect.DeepEqual(got, []string{"ann", "pat"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExternalFactsPreUnified(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		edge(a, b). edge(b, c). edge(c, d). edge(d, e).
	`); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "edge(b, X)", "X")
	if !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("edge(b,X) = %v", got)
	}
	// Pre-unification stats: a bound query retrieves one candidate, not
	// four.
	e.KB().ResetStats()
	values(t, e, "edge(c, X)", "X")
	st := e.Stats()
	if st.EDB.CandidatesReturned != 1 {
		t.Fatalf("pre-unification returned %d candidates", st.EDB.CandidatesReturned)
	}
	// Unbound: all four edges; this freezes the whole definition in
	// main memory, after which bound queries dispatch via the in-memory
	// switch instructions without further EDB retrievals.
	if n, _ := e.QueryCount("edge(_, _)"); n != 4 {
		t.Fatalf("edge(_,_) count = %d", n)
	}
	e.KB().ResetStats()
	got = values(t, e, "edge(a, X)", "X")
	if !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("edge(a,X) after freeze = %v", got)
	}
	if e.Stats().EDB.Retrievals != 0 {
		t.Fatalf("frozen definition still retrieved from the EDB")
	}
}

func TestExternalRules(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "path(a, X)", "X")
	if !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("path(a,X) = %v", got)
	}
}

func TestExternalRulesWithControl(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		val(1). val(5). val(-3).
		cls(X, C) :- val(X), ( X > 0 -> C = pos ; C = nonpos ).
	`); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "cls(X, C), C == pos", "X")
	if !reflect.DeepEqual(got, []string{"1", "5"}) {
		t.Fatalf("cls = %v", got)
	}
}

// TestProfileLocalProcedures: a clause's control constructs run inside its
// own box. The profile has rows for the program's predicates, and for the
// $query code of the one goal that is not a single call, and each keeps
// exits <= calls + redos although a local procedure proceeds.
func TestProfileLocalProcedures(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		val(1). val(5). val(-3).
		cls(X, C) :- val(X), ( X > 0 -> C = pos ; C = nonpos ).
		odd(X) :- val(X), \+ X =:= 5, (X > 0 ; X < -1).
		sum(0, 0).
		sum(N, S) :- N > 0, M is N - 1, sum(M, S0), val(V), S is S0 + V.
	`); err != nil {
		t.Fatal(err)
	}
	e.EnableProfiling(true)
	for q, want := range map[string]int{"cls(X, C)": 3, "odd(X)": 2, "cls(X, C), C == pos": 2, "sum(2, S)": 9} {
		if n, err := e.QueryCount(q); err != nil || n != want {
			t.Fatalf("%s: n=%d err=%v, want %d", q, n, err, want)
		}
	}
	var preds []string
	for _, r := range e.Profile() {
		preds = append(preds, r.Pred)
		if r.Exits > r.Calls+r.Redos {
			t.Errorf("%s: exits %d > calls %d + redos %d", r.Pred, r.Exits, r.Calls, r.Redos)
		}
	}
	sort.Strings(preds)
	if want := []string{"$query/2", "cls/2", "odd/1", "sum/2", "val/1"}; !reflect.DeepEqual(preds, want) {
		t.Fatalf("profiled predicates %v, want %v", preds, want)
	}
}

func TestBaselineSourceMode(t *testing.T) {
	e := newSession(t, Options{RuleStorage: RuleStorageSource})
	if err := e.ConsultExternal(`
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "path(a, X)", "X")
	if !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("baseline path(a,X) = %v", got)
	}
	// The baseline must have parsed and asserted rules per query.
	if e.Cost().Asserts == 0 {
		t.Fatal("baseline made no asserts")
	}
	// Second query reloads (assert + erase per use).
	before := e.Cost().Asserts
	values(t, e, "path(b, X)", "X")
	if e.Cost().Asserts <= before {
		t.Fatal("baseline did not re-assert on second query")
	}
}

func TestModesAgree(t *testing.T) {
	src := `
		conn(a, b, 5). conn(b, c, 3). conn(a, c, 9). conn(c, d, 2).
		route(X, Y, C) :- conn(X, Y, C).
		route(X, Z, C) :- conn(X, Y, C1), route(Y, Z, C2), C is C1 + C2.
	`
	star := newSession(t, Options{})
	if err := star.ConsultExternal(src); err != nil {
		t.Fatal(err)
	}
	base := newSession(t, Options{RuleStorage: RuleStorageSource})
	if err := base.ConsultExternal(src); err != nil {
		t.Fatal(err)
	}
	q := "route(a, d, C)"
	got1 := values(t, star, q, "C")
	got2 := values(t, base, q, "C")
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("modes disagree: compiled=%v source=%v", got1, got2)
	}
	if len(got1) == 0 {
		t.Fatal("no routes found")
	}
}

func TestFindallSetofBootstrap(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`item(3). item(1). item(2). item(1).`)
	got := values(t, e, "findall(X, item(X), L)", "L")
	if !reflect.DeepEqual(got, []string{"[3,1,2,1]"}) {
		t.Fatalf("findall = %v", got)
	}
	got = values(t, e, "setof(X, item(X), L)", "L")
	if !reflect.DeepEqual(got, []string{"[1,2,3]"}) {
		t.Fatalf("setof = %v", got)
	}
	got = values(t, e, "aggregate_all(count, item(X), N)", "N")
	if !reflect.DeepEqual(got, []string{"4"}) {
		t.Fatalf("count = %v", got)
	}
}

func TestAssertRetractDynamic(t *testing.T) {
	e := newSession(t, Options{})
	if _, err := e.QueryAll("assert(counter(0))"); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "counter(X)", "X")
	if !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("counter = %v", got)
	}
	if _, err := e.QueryAll("retract(counter(0)), assert(counter(1))"); err != nil {
		t.Fatal(err)
	}
	got = values(t, e, "counter(X)", "X")
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("counter after update = %v", got)
	}
	// Rules can be asserted too.
	if _, err := e.QueryAll("assert((double(X, Y) :- Y is X * 2))"); err != nil {
		t.Fatal(err)
	}
	got = values(t, e, "double(21, Y)", "Y")
	if !reflect.DeepEqual(got, []string{"42"}) {
		t.Fatalf("asserted rule = %v", got)
	}
}

func TestClauseEnumeration(t *testing.T) {
	e := newSession(t, Options{})
	e.QueryAll("assert(f(1)), assert(f(2))")
	got := values(t, e, "clause(f(X), true)", "X")
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("clause/2 = %v", got)
	}
}

func TestPersistentStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.edb")
	kb, err := OpenKB(Options{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.ConsultExternal(`city(munich). city(hamburg). link(munich, hamburg).`); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newSession(t, Options{StorePath: path})
	got := values(t, e2, "city(X)", "X")
	if !reflect.DeepEqual(got, []string{"munich", "hamburg"}) {
		t.Fatalf("cities after reopen = %v", got)
	}
	if n, _ := e2.QueryCount("link(munich, hamburg)"); n != 1 {
		t.Fatal("link lost after reopen")
	}
}

// TestOpenRefusesIndexBeforePairOrder: a clause index whose anchor lacks
// the pair-order tag was written when separators held keys alone; OpenKB
// refuses it with the format-change error rather than misread it.
func TestOpenRefusesIndexBeforePairOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.edb")
	kb, err := OpenKB(Options{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	e, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ConsultExternal(`city(munich). city(hamburg).`); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	// An anchor of the old format: the root ID, then zeros.
	st, err := store.Open(store.OSFS{}, path, store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	anchor, _ := st.GetMeta("edb.index")
	f, err := st.Pool().GetX(store.PageID(anchor))
	if err != nil {
		t.Fatal(err)
	}
	clear(f.Data[4:8])
	st.Pool().Unpin(f, true)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if kb, err := OpenKB(Options{StorePath: path}); !errors.Is(err, store.ErrOldBTree) {
		if err == nil {
			kb.Close()
		}
		t.Fatalf("OpenKB of an index before pair order = %v, want %v", err, store.ErrOldBTree)
	}
}

func TestRelationBridge(t *testing.T) {
	e := newSession(t, Options{})
	r, err := e.CreateRelation(rel.Schema{
		Name:  "emp",
		Attrs: []rel.Attr{{Name: "id", Type: rel.Int}, {Name: "name", Type: rel.String}, {Name: "dept", Type: rel.Int}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Insert(rel.Tuple{rel.IntV(int64(i)), rel.StringV(name(i)), rel.IntV(int64(i % 3))})
	}
	if err := r.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "emp(7, N, _)", "N")
	if !reflect.DeepEqual(got, []string{"e7"}) {
		t.Fatalf("emp(7,N,_) = %v", got)
	}
	if n, _ := e.QueryCount("emp(_, _, 1)"); n != 7 {
		t.Fatalf("dept 1 count = %d", n)
	}
	// Mix with rules: term-oriented over the relation (dual strategy).
	// "e4" names employees 4 (dept 1) and 14 (dept 2).
	e.Consult("dept_of(Name, D) :- emp(_, Name, D).")
	got = values(t, e, "dept_of(e4, D)", "D")
	if !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Fatalf("dept_of = %v", got)
	}
}

func name(i int) string { return "e" + string(rune('0'+i%10)) }

func TestDisableIndexingStillCorrect(t *testing.T) {
	e := newSession(t, Options{DisableIndexing: true})
	e.Consult(`color(red, warm). color(blue, cool). color(green, cool).`)
	got := values(t, e, "color(blue, T)", "T")
	if !reflect.DeepEqual(got, []string{"cool"}) {
		t.Fatalf("got %v", got)
	}
}

func TestDisablePreUnification(t *testing.T) {
	e := newSession(t, Options{DisablePreUnification: true})
	if err := e.ConsultExternal(`f(1, one). f(2, two). f(3, three).`); err != nil {
		t.Fatal(err)
	}
	e.KB().ResetStats()
	got := values(t, e, "f(2, X)", "X")
	if !reflect.DeepEqual(got, []string{"two"}) {
		t.Fatalf("got %v", got)
	}
	if e.Stats().EDB.CandidatesReturned != 3 {
		t.Fatalf("expected full retrieval, got %d candidates", e.Stats().EDB.CandidatesReturned)
	}
}

func TestOpDirective(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.Consult(`
		:- op(700, xfx, ===>).
		rule(a ===> b).
	`); err != nil {
		t.Fatal(err)
	}
	got := values(t, e, "rule(X ===> Y), Z = Y", "Z")
	if !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("custom op = %v", got)
	}
}

func TestGCDuringQuery(t *testing.T) {
	e := newSession(t, Options{})
	e.Machine().SetGCThreshold(2048)
	e.Consult(`
		build(0, []) :- !.
		build(N, [N|T]) :- N1 is N - 1, build(N1, T).
		churn(0) :- !.
		churn(N) :- build(200, _), N1 is N - 1, churn(N1).
	`)
	if n, err := e.QueryCount("churn(300)"); err != nil || n != 1 {
		t.Fatalf("churn: %d %v", n, err)
	}
	if e.Stats().Machine.GCRuns == 0 {
		t.Fatal("GC never ran despite churn")
	}
}

func TestQuerySolutionsIterator(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult("n(1). n(2). n(3).")
	s, err := e.Query("n(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next() {
		t.Fatal("no first solution")
	}
	if s.Binding("X").String() != "1" {
		t.Fatalf("first = %v", s.Binding("X"))
	}
	s.Close()
	// After Close, a new query works.
	if n, _ := e.QueryCount("n(_)"); n != 3 {
		t.Fatal("engine unusable after Close")
	}
}

func TestBaselineIteratorEarlyClose(t *testing.T) {
	e := newSession(t, Options{RuleStorage: RuleStorageSource})
	if err := e.ConsultExternal("m(1). m(2). m(3)."); err != nil {
		t.Fatal(err)
	}
	s, err := e.Query("m(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next() {
		t.Fatal("no solution")
	}
	s.Close() // must not deadlock or leak
	if n, _ := e.QueryCount("m(_)"); n != 3 {
		t.Fatal("engine broken after early close")
	}
}

func TestCatchThrow(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`
		risky(X) :- X > 0, throw(too_big(X)).
		risky(X) :- X =< 0.
		safe(X, R) :- catch((risky(X), R = ran), too_big(N), R = caught(N)).
	`)
	// Thrown and caught, with bindings flowing into the recovery.
	got := values(t, e, "safe(5, R)", "R")
	if !reflect.DeepEqual(got, []string{"caught(5)"}) {
		t.Fatalf("safe(5, R) = %v", got)
	}
	// No throw: catch is transparent and the goal's bindings survive.
	got = values(t, e, "safe(-1, R)", "R")
	if !reflect.DeepEqual(got, []string{"ran"}) {
		t.Fatalf("safe(-1, R) = %v", got)
	}
}

func TestCatchRethrow(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`
		inner :- catch(throw(other), nomatch, true).
		outer(R) :- catch(inner, other, R = outer_caught).
	`)
	got := values(t, e, "outer(R)", "R")
	if !reflect.DeepEqual(got, []string{"outer_caught"}) {
		t.Fatalf("outer(R) = %v", got)
	}
}

func TestUncaughtBallAborts(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult("boom :- throw(kaboom).")
	_, err := e.QueryAll("boom")
	if err == nil {
		t.Fatal("expected uncaught exception error")
	}
	if !containsSub(err.Error(), "kaboom") {
		t.Fatalf("error %q does not mention the ball", err)
	}
}

func TestExistenceErrorCatchable(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`
		try(R) :- catch(no_such_predicate(1), error(existence_error(procedure, PI), _), R = missing(PI)).
	`)
	got := values(t, e, "try(R)", "R")
	if len(got) != 1 || !containsSub(got[0], "no_such_predicate") {
		t.Fatalf("try(R) = %v", got)
	}
	// Without a catcher the existence error aborts the query.
	if _, err := e.QueryAll("no_such_predicate(1)"); err == nil {
		t.Fatal("expected existence error")
	}
}

func TestCatchBacktracksThroughGoal(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`p(1). p(2). p(3).`)
	got := values(t, e, "catch(p(X), _, fail)", "X")
	if !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Fatalf("catch enumeration = %v", got)
	}
}

func TestThrowUnwindsNestedCalls(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`
		deep(0) :- throw(bottom).
		deep(N) :- N > 0, N1 is N - 1, deep(N1).
		run(R) :- catch(deep(50), bottom, R = unwound).
	`)
	got := values(t, e, "run(R)", "R")
	if !reflect.DeepEqual(got, []string{"unwound"}) {
		t.Fatalf("run(R) = %v", got)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAnonymousVariableStoredApart: an anonymous variable is never read
// under the name of a named variable of the same clause, so a stored
// clause keeps its variables apart in both rule-storage modes, and
// retract_external finds it again.
func TestAnonymousVariableStoredApart(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		e := newSession(t, Options{RuleStorage: rs})
		if err := e.ConsultExternal("q(2). p(_, _A1) :- q(_A1)."); err != nil {
			t.Fatal(err)
		}
		count := func(q string, want int) {
			t.Helper()
			if n, err := e.QueryCount(q); err != nil || n != want {
				t.Fatalf("%v: %s has %d solutions (err %v), want %d", rs, q, n, err, want)
			}
		}
		count("p(1, 2)", 1)
		count("p(2, 2)", 1)
		count("p(1, 1)", 0)
		if ok, err := e.RetractExternal(mustParseCore(t, "(p(_, _A1) :- q(_A1))")); !ok || err != nil {
			t.Fatalf("%v: retract_external: %v, %v", rs, ok, err)
		}
		count("p(2, 2)", 0)
	}
}

func TestAssertRetractExternal(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal("stock(apples, 10). stock(pears, 5)."); err != nil {
		t.Fatal(err)
	}
	// Assert a new external fact and query it.
	tm := mustParseCore(t, "stock(plums, 7)")
	if err := e.AssertExternalTerm(tm); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.QueryCount("stock(plums, 7)"); n != 1 {
		t.Fatal("asserted external fact not found")
	}
	// Retract it again.
	ok, err := e.RetractExternal(mustParseCore(t, "stock(plums, 7)"))
	if err != nil || !ok {
		t.Fatalf("retract: %v %v", ok, err)
	}
	if n, _ := e.QueryCount("stock(plums, _)"); n != 0 {
		t.Fatal("retracted external fact still found")
	}
	// Retracting an absent clause fails cleanly.
	ok, err = e.RetractExternal(mustParseCore(t, "stock(mangoes, 1)"))
	if err != nil || ok {
		t.Fatalf("retract absent: %v %v", ok, err)
	}
	// The remaining facts are untouched.
	if n, _ := e.QueryCount("stock(_, _)"); n != 2 {
		t.Fatal("unrelated facts disturbed")
	}
}

func TestRetractExternalRule(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		r(X) :- s(X).
		r(X) :- t(X).
		s(1). t(2).
	`); err != nil {
		t.Fatal(err)
	}
	if got := values(t, e, "r(X)", "X"); len(got) != 2 {
		t.Fatalf("r(X) = %v", got)
	}
	ok, err := e.RetractExternal(mustParseCore(t, "r(X) :- t(X)"))
	if err != nil || !ok {
		t.Fatalf("retract rule: %v %v", ok, err)
	}
	got := values(t, e, "r(X)", "X")
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("after retract r(X) = %v", got)
	}
	// A clause with a control construct compiles to the same bytes again,
	// so it is found and removed like any other.
	if err := e.AssertExternalTerm(mustParseCore(t, "r(X) :- (s(X) ; t(X))")); err != nil {
		t.Fatal(err)
	}
	ok, err = e.RetractExternal(mustParseCore(t, "r(Y) :- (s(Y) ; t(Y))"))
	if err != nil || !ok {
		t.Fatalf("retract control-construct rule: %v %v", ok, err)
	}
	if got := values(t, e, "r(X)", "X"); !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("after retracting the disjunction r(X) = %v", got)
	}
}

func TestDropExternal(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal("gone(1). gone(2)."); err != nil {
		t.Fatal(err)
	}
	if err := e.DropExternal("gone", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("gone(X)"); err == nil {
		t.Fatal("dropped procedure still callable")
	}
	if err := e.DropExternal("gone", 1); err == nil {
		t.Fatal("double drop should error")
	}

	// Control constructs store no procedures of their own: the knowledge
	// base lists only the program's predicates, and retracting or dropping
	// their clauses leaves nothing else behind.
	if err := e.ConsultExternal(`
		c(X) :- (X = 1 ; X = 2).
		c(X) :- (X = 4 -> true ; X = 3).
		n(X) :- c(X), \+ X = 2.
	`); err != nil {
		t.Fatal(err)
	}
	procs := func() []string {
		var out []string
		for _, p := range e.KB().DB().Procs() {
			out = append(out, fmt.Sprintf("%s/%d", p.Name, p.Arity))
		}
		return out
	}
	if got := procs(); !reflect.DeepEqual(got, []string{"c/1", "n/1"}) {
		t.Fatalf("stored procedures %v, want [c/1 n/1]", got)
	}
	if got := values(t, e, "n(X)", "X"); !reflect.DeepEqual(got, []string{"1", "4"}) {
		t.Fatalf("n(X) = %v", got)
	}
	if n, err := e.QueryCount("retract_external((n(X) :- c(X), \\+ X = 2))"); err != nil || n != 1 {
		t.Fatalf("retract_external: n=%d err=%v", n, err)
	}
	if err := e.DropExternal("c", 1); err != nil {
		t.Fatal(err)
	}
	if got := procs(); !reflect.DeepEqual(got, []string{"n/1"}) {
		t.Fatalf("after retract and drop, stored procedures %v, want [n/1]", got)
	}
	if got := values(t, e, "n(X)", "X"); len(got) != 0 {
		t.Fatalf("n(X) after its clause was retracted = %v", got)
	}
}

func TestRetractExternalSourceMode(t *testing.T) {
	e := newSession(t, Options{RuleStorage: RuleStorageSource})
	if err := e.ConsultExternal("m(1). m(2). m(3)."); err != nil {
		t.Fatal(err)
	}
	ok, err := e.RetractExternal(mustParseCore(t, "m(2)"))
	if err != nil || !ok {
		t.Fatalf("retract: %v %v", ok, err)
	}
	got := values(t, e, "m(X)", "X")
	if !reflect.DeepEqual(got, []string{"1", "3"}) {
		t.Fatalf("after retract m(X) = %v", got)
	}
}

func TestAcyclicTerm(t *testing.T) {
	e := newSession(t, Options{})
	if n, _ := e.QueryCount("acyclic_term(f(1, g(2), [a,b]))"); n != 1 {
		t.Fatal("acyclic term misreported")
	}
	// Building a cyclic term needs rational-tree unification: X = f(X).
	if n, _ := e.QueryCount("X = f(X), cyclic_term(X)"); n != 1 {
		t.Fatal("cyclic term not detected")
	}
	if n, _ := e.QueryCount("X = f(Y), acyclic_term(X)"); n != 1 {
		t.Fatal("open term misreported as cyclic")
	}
}

func TestLoadedCodeCacheEviction(t *testing.T) {
	// Thousands of distinct pre-unification keys push the session code
	// cache past its limit; the epoch eviction must not break answers.
	e := newSession(t, Options{})
	var src string
	for i := 0; i < 1500; i++ {
		src += fmt.Sprintf("kv(k%d, %d).\n", i, i)
	}
	if err := e.ConsultExternal(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i += 7 {
		got := values(t, e, fmt.Sprintf("kv(k%d, V)", i), "V")
		if len(got) != 1 || got[0] != fmt.Sprintf("%d", i) {
			t.Fatalf("kv(k%d) = %v", i, got)
		}
	}
	// Re-query early keys after eviction cycles.
	got := values(t, e, "kv(k0, V)", "V")
	if !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("kv(k0) after eviction = %v", got)
	}
}

func TestSolutionsIteratorEdgeCases(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult("one(1).")
	s, err := e.Query("one(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next() {
		t.Fatal("missing solution")
	}
	if s.Next() {
		t.Fatal("spurious second solution")
	}
	// Next after exhaustion stays false, Err stays nil.
	if s.Next() || s.Err() != nil {
		t.Fatal("iterator not stable after exhaustion")
	}
	s.Close()
	s.Close() // double close is harmless

	// Error propagation through the iterator.
	s, err = e.Query("one(X), throw(oops)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Next() {
		t.Fatal("solution despite throw")
	}
	if s.Err() == nil {
		t.Fatal("missing error")
	}
	s.Close()
}

func TestEngineManyQueriesStable(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult(`
		len([], 0).
		len([_|T], N) :- len(T, N1), N is N1 + 1.
	`)
	for i := 0; i < 500; i++ {
		got := values(t, e, "len([a,b,c], N)", "N")
		if len(got) != 1 || got[0] != "3" {
			t.Fatalf("iteration %d: %v", i, got)
		}
	}
	// Code blocks must not accumulate per query beyond the query procs.
	if nblocks := len(values(t, e, "len([], N)", "N")); nblocks != 1 {
		t.Fatal("engine degraded")
	}
}

// TestAssertRetractKeepsPageFileFlat: assert_external/retract_external
// pairs around one live stored clause must reuse what the retracted
// clauses freed (the parent grew from 11 pages at round 100 to 109 at
// round 4000: deleted heap bytes were never reclaimed).
func TestAssertRetractKeepsPageFileFlat(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal(`g(0).`)(t, e)
	pager := e.KB().Store().Pool().Pager()
	var at100 uint32
	for i := 1; i <= 4000; i++ {
		q := fmt.Sprintf("assert_external(g(%d)), retract_external(g(%d))", i, i)
		if n, err := e.QueryCount(q); err != nil || n != 1 {
			t.Fatalf("%s: n=%d err=%v", q, n, err)
		}
		if i == 100 {
			at100 = uint32(pager.NumPages())
		}
	}
	got := uint32(pager.NumPages())
	t.Logf("pages: %d at round 100, %d at round 4000", at100, got)
	if got > at100+4 {
		t.Errorf("page file grew from %d pages at round 100 to %d at round 4000", at100, got)
	}
}

func TestTypedSubLanguage(t *testing.T) {
	e := newSession(t, Options{})
	err := e.ConsultExternal(`
		:- typed(conn(atom, atom, integer)).
		conn(a, b, 5).
		conn(b, c, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// A violating clause is rejected at store time.
	err = e.ConsultExternal("conn(a, b, not_an_integer).")
	if err == nil {
		t.Fatal("type violation accepted")
	}
	if !containsSub(err.Error(), "declared type integer") {
		t.Fatalf("error %q does not explain the violation", err)
	}
	// Variables pass any type.
	if err := e.ConsultExternal("conn(x, y, _)."); err != nil {
		t.Fatalf("variable argument rejected: %v", err)
	}
	// Untyped predicates are unaffected.
	if err := e.ConsultExternal("free(whatever, 1.5)."); err != nil {
		t.Fatal(err)
	}
	// Queries still work.
	got := values(t, e, "conn(a, b, T)", "T")
	if !reflect.DeepEqual(got, []string{"5"}) {
		t.Fatalf("conn = %v", got)
	}
}

func TestStatisticsBuiltin(t *testing.T) {
	e := newSession(t, Options{})
	e.Consult("p(1).")
	values(t, e, "p(X)", "X") // generate some activity
	got := values(t, e, "educe_statistics(instructions, N)", "N")
	if len(got) != 1 || got[0] == "0" {
		t.Fatalf("instructions stat = %v", got)
	}
	// Enumeration mode yields all keys: 33 counters (including the
	// buffer-pool hit/eviction/latch and shard-count stats and the
	// transaction/read-only robustness stats) plus the seven query
	// phases and store_ns.
	n, err := e.QueryCount("educe_statistics(_, _)")
	if err != nil || n != 41 {
		t.Fatalf("stat keys = %d (%v)", n, err)
	}
	// The phase breakdown is exposed: the p(X) query above must have
	// spent time executing.
	got = values(t, e, "educe_statistics(exec_ns, N)", "N")
	if len(got) != 1 || got[0] == "0" {
		t.Fatalf("exec_ns stat = %v", got)
	}
	// Unknown key fails.
	if n, _ := e.QueryCount("educe_statistics(bogus, _)"); n != 0 {
		t.Fatal("bogus key should fail")
	}
}

// TestSessionPageAccounting pins what a lone session is charged: its
// SessionIO grows by exactly the pool's own growth over the same queries,
// its PagesTouched is the sum of its retrievals' access deltas, a storage
// window re-entered from inside itself counts once, and a KB-wide
// ResetStats in the middle of a window does not underflow the tally.
func TestSessionPageAccounting(t *testing.T) {
	s := newSession(t, Options{PoolPages: 16})
	var facts string
	for i := 0; i < 3000; i++ {
		facts += fmt.Sprintf("f(%d, v%d).\n", i, i%7)
	}
	if err := s.ConsultExternal(facts); err != nil {
		t.Fatal(err)
	}
	pagesPerRetrieval := func() uint64 {
		return s.KB().Obs().Snapshot()["edb.pages_per_retrieval"].(obs.HistogramSnapshot).SumNS
	}

	st0, sum0 := s.Stats(), pagesPerRetrieval()
	for i := 0; i < 200; i++ {
		if n, err := s.QueryCount(fmt.Sprintf("f(%d, V)", i*13)); err != nil || n != 1 {
			t.Fatalf("f(%d, V): n=%d err=%v", i*13, n, err)
		}
	}
	st1 := s.Stats()
	pool := st1.IO.Accesses - st0.IO.Accesses
	if pool == 0 {
		t.Fatal("the queries touched no page")
	}
	if got := st1.SessionIO.Accesses - st0.SessionIO.Accesses; got != pool {
		t.Errorf("session_io_accesses grew %d, store.pool.accesses grew %d", got, pool)
	}
	if got := st1.SessionIO.Reads - st0.SessionIO.Reads; got != st1.IO.Reads-st0.IO.Reads {
		t.Errorf("session_io_reads grew %d, store.pool.reads grew %d", got, st1.IO.Reads-st0.IO.Reads)
	}
	touched := st1.Cost.PagesTouched - st0.Cost.PagesTouched
	if got := pagesPerRetrieval() - sum0; touched != got || touched != pool {
		t.Errorf("pages_touched grew %d, retrievals' deltas sum to %d, pool grew %d", touched, got, pool)
	}

	// Re-entry: an rlock inside an rlock is one window.
	p := s.kb.db.Proc("f", 2)
	before, pool0 := s.tally.Stats().Accesses, s.kb.st.Stats().Accesses
	outer := s.rlock()
	inner := s.rlock()
	if _, err := s.kb.db.Retrieve(p, nil); err != nil {
		t.Fatal(err)
	}
	inner()
	outer()
	if got, want := s.tally.Stats().Accesses-before, s.kb.st.Stats().Accesses-pool0; got != want || got == 0 {
		t.Errorf("nested window charged %d accesses, the pool made %d", got, want)
	}

	// A reset of the shared counters inside a window charges nothing
	// rather than wrapping around.
	before = s.tally.Stats().Accesses
	unlock := s.rlock()
	if _, err := s.kb.db.Retrieve(p, nil); err != nil {
		t.Fatal(err)
	}
	s.KB().ResetStats()
	unlock()
	if got := s.tally.Stats().Accesses - before; got != 0 {
		t.Errorf("window across KnowledgeBase.ResetStats charged %d accesses", got)
	}
}
