package core

// Differential testing: the WAM-compiled engine and the resolution
// interpreter implement the same language, so every program in the corpus
// must yield identical solution lists on both. This catches compiler,
// emulator and interpreter bugs against each other.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/term"
)

type diffCase struct {
	name    string
	program string
	query   string
}

var diffCorpus = []diffCase{
	{"facts", "p(1). p(2). p(3).", "p(X)"},
	{"conj", "p(1). p(2). q(2). r(X) :- p(X), q(X).", "r(X)"},
	{"recursion", `
		app([], L, L).
		app([H|T], L, [H|R]) :- app(T, L, R).
	`, "app(X, Y, [1,2,3])"},
	{"cut-commit", `
		max(X, Y, X) :- X >= Y, !.
		max(_, Y, Y).
	`, "max(3, 5, M)"},
	{"cut-in-body", `
		p(1). p(2). p(3).
		firsttwo(X) :- p(X), X < 3.
		f(X) :- firsttwo(X), !.
	`, "f(X)"},
	{"cut-through-callee-disjunction", `
		v(1). v(2). v(3).
		c(X) :- ( v(X), X > 1, ! ; X = none ).
	`, "findall(X, c(X), L)"},
	{"cut-through-callee-clauses", `
		v(1). v(2). v(3).
		p(X) :- v(X), X > 1, !.
		p(none).
	`, "findall(X, p(X), L)"},
	{"cut-through-call", `
		v(1). v(2). v(3).
		p(X) :- call(v(X)), X > 1, !.
		p(none).
	`, "findall(X, p(X), L)"},
	{"ite", `
		cls(X, pos) :- ( X > 0 -> true ; fail ).
		cls(X, neg) :- ( X > 0 -> fail ; true ).
	`, "cls(-2, C)"},
	{"ite-chain", `
		sgn(X, S) :- ( X > 0 -> S = 1 ; X < 0 -> S = -1 ; S = 0 ).
	`, "sgn(0, S)"},
	{"negation", `
		p(1). p(2).
		notp(X) :- \+ p(X).
		t(X) :- member(X, [1,2,3,4]), \+ p(X).
	`, "t(X)"},
	{"disjunction", `
		d(X) :- ( X = a ; X = b ; X = c ).
	`, "d(X)"},
	{"arith", `
		fact(0, 1) :- !.
		fact(N, F) :- N1 is N - 1, fact(N1, F1), F is N * F1.
	`, "fact(6, F)"},
	{"findall", `
		q(3). q(1). q(2).
		l(L) :- findall(X, q(X), L).
	`, "l(L)"},
	{"structures", `
		tree(node(leaf, 1, node(leaf, 2, leaf))).
		sum(leaf, 0).
		sum(node(L, V, R), S) :- sum(L, SL), sum(R, SR), S is SL + V + SR.
		total(S) :- tree(T), sum(T, S).
	`, "total(S)"},
	{"between-filter", "", "between(1, 10, X), 0 is X mod 3"},
	{"univ-functor", "", "T =.. [f, 1, 2], functor(T, N, A), arg(2, T, X)"},
	{"sortmsort", "", "msort([3,1,2,1], M), sort([3,1,2,1], S)"},
	{"copyterm", "", "copy_term(f(X, g(X, Y)), C)"},
	{"vargoal", "p(7). call_it(G) :- call(G).", "G = p(X), call_it(G)"},
	{"lists", "", "append([1], [2,3], L), reverse(L, R), member(M, R)"},
	{"compare", "", "compare(O, f(a), f(b))"},
	{"deep-backtrack", `
		pick(X) :- member(X, [1,2,3]).
		pair(A, B) :- pick(A), pick(B), A < B.
	`, "pair(A, B)"},
	{"qsort", `
		qsort([], []).
		qsort([H|T], S) :-
			part(T, H, Lo, Hi),
			qsort(Lo, SL), qsort(Hi, SH),
			append(SL, [H|SH], S).
		part([], _, [], []).
		part([X|Xs], P, [X|Lo], Hi) :- X =< P, !, part(Xs, P, Lo, Hi).
		part([X|Xs], P, Lo, [X|Hi]) :- part(Xs, P, Lo, Hi).
	`, "qsort([3,1,4,1,5,9,2,6], S)"},
	{"queens4", `
		queens(N, Qs) :- numlist(1, N, Ns), perm(Ns, Qs), safe(Qs).
		perm([], []).
		perm(L, [H|T]) :- select(H, L, R), perm(R, T).
		safe([]).
		safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).
		noattack(_, [], _).
		noattack(Q, [Q2|Qs], D) :-
			Q =\= Q2 + D, Q =\= Q2 - D,
			D1 is D + 1, noattack(Q, Qs, D1).
	`, "queens(4, Qs)"},
	{"hanoi", `
		hanoi(0, _, _, _, []) :- !.
		hanoi(N, A, B, C, Ms) :-
			N1 is N - 1,
			hanoi(N1, A, C, B, M1),
			hanoi(N1, C, B, A, M2),
			append(M1, [A-B|M2], Ms).
	`, "hanoi(4, l, r, m, Ms)"},
	{"primes", `
		primes(N, Ps) :- numlist(2, N, Ns), sieve(Ns, Ps).
		sieve([], []).
		sieve([P|Xs], [P|Ps]) :- strike(Xs, P, Rest), sieve(Rest, Ps).
		strike([], _, []).
		strike([X|Xs], P, R) :- 0 is X mod P, !, strike(Xs, P, R).
		strike([X|Xs], P, [X|R]) :- strike(Xs, P, R).
	`, "primes(30, Ps)"},
	{"nested-control", `
		f(X, R) :- ( X > 10 -> ( X > 100 -> R = huge ; R = big ) ; \+ X > 0 -> R = nonpos ; R = small ).
	`, "member(X, [-5, 5, 50, 500]), f(X, R)"},
	{"consulted-call", `
		h(1). h(2). h(3).
		g(X) :- h(X), X > 1.
	`, "g(X)"},
	{"catch-throw", "", "catch(throw(x), E, true)"},
	{"catch-existence-error", "", "catch(nope(1), error(existence_error(procedure, P), _), true)"},
	// The inner catch has exited when y is thrown: the outer one catches it.
	{"catch-after-exit", "", "catch((catch(true, y, R = in), throw(y)), y, R = out)"},
	// X's binding is undone and X is shared with Y, one variable in both.
	{"catch-undoes-bindings", "", "catch((X = 1, throw(e)), e, Y = X)"},
	// The inner recovery must not run for a ball thrown after its goal exited.
	{"catch-exited-recovery", "c :- fail.", "catch((catch(true, _, assert(c)), throw(y)), _, true), c"},
	// Backtracking into an exited goal re-arms its catch, also after a ball
	// delivered past it while it was exited.
	{"catch-rearmed", "", "catch((member(X, [1, 2]), (X =:= 2 -> throw(b) ; true)), b, Y = got), catch(throw(a), a, true), (var(Y) -> Y = none ; true)"},
	{"catch-in-rule", `
		v(1). v(2).
		safe(X, R) :- catch((v(X), X > 1, throw(big(X))), big(B), R = caught(B)).
	`, "safe(X, R)"},
	// Consulted clauses of a dynamic predicate are the ones assert, retract
	// and clause/2 read, with the declaration before or after them.
	{"dynamic-consulted-assert", ":- dynamic(c/1). c(1). c(2).", "assert(c(3)), findall(X, c(X), L)"},
	{"dynamic-consulted-retract", ":- dynamic(c/1). c(1). c(2).", "retract(c(1)), findall(X, c(X), L)"},
	{"dynamic-consulted-retract-binds", "c(1). c(2). :- dynamic(c/1).", "retract(c(X)), findall(Y, c(Y), L)"},
	{"dynamic-consulted-clause", ":- dynamic(c/1). c(1). c(2).", "clause(c(X), true)"},
	{"clause-rule", "r(X) :- c(X), X > 1. c(1).", "clause(r(Y), B)"},
	{"dynamic-after-clauses", "c(1). c(2). :- dynamic(c/1).", "findall(X, c(X), L)"},
	// The library both evaluators load.
	{"nth1-enumerates", "", "nth1(N, [a,b,c], X)"},
	{"maplist", "double(X, Y) :- Y is X * 2.", "maplist(integer, [1,2,3]), maplist(double, [1,2,3], L), nth0(1, L, Z)"},
	{"include-exclude", "", "include(integer, [a,1,b,2], I), exclude(integer, [a,1,b,2], E)"},
	{"bagof-setof", "", "bagof(X, member(X, [c,a,c]), B), setof(Y, Z^member(Y-Z, [b-1,a-2,b-3]), S)"},
}

// wamSolutions runs the query on the compiled engine.
func wamSolutions(t *testing.T, c diffCase) []string {
	t.Helper()
	e := newSession(t, Options{})
	if c.program != "" {
		if err := e.Consult(c.program); err != nil {
			t.Fatalf("consult: %v", err)
		}
	}
	sols, err := e.QueryAll(c.query)
	if err != nil {
		t.Fatalf("wam query: %v", err)
	}
	return renderSolutions(sols)
}

// interpSolutions runs the query on the baseline interpreter.
func interpSolutions(t *testing.T, c diffCase) []string {
	t.Helper()
	in := interp.New()
	terms, err := parser.New(c.program).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Consult(terms); err != nil {
		t.Fatal(err)
	}
	goal, vars, err := parser.ParseTerm(c.query)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []map[string]term.Term
	err = in.Solve(goal, nil, func(env *interp.Env) bool {
		sol := map[string]term.Term{}
		for _, n := range names {
			sol[n] = env.ResolveDeep(vars[n])
		}
		out = append(out, sol)
		return true
	})
	if err != nil {
		t.Fatalf("interp query: %v", err)
	}
	return renderSolutions(out)
}

// renderSolutions normalises binding maps to comparable strings. The
// engines name fresh variables differently, so every solution row gets its
// variables renamed canonically in first-occurrence order over the sorted
// binding names.
func renderSolutions(sols []map[string]term.Term) []string {
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		names := make([]string, 0, len(s))
		for n := range s {
			names = append(names, n)
		}
		sort.Strings(names)
		ren := map[*term.Var]*term.Var{}
		row := ""
		for _, n := range names {
			row += n + "=" + canonVars(s[n], ren).String() + ";"
		}
		out = append(out, row)
	}
	return out
}

// canonVars renames every variable to _V<k> in first-occurrence order,
// sharing the map across terms of one solution.
func canonVars(t term.Term, ren map[*term.Var]*term.Var) term.Term {
	switch x := t.(type) {
	case *term.Var:
		nv, ok := ren[x]
		if !ok {
			nv = &term.Var{Name: fmt.Sprintf("_V%d", len(ren))}
			ren[x] = nv
		}
		return nv
	case *term.Compound:
		args := make([]term.Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = canonVars(a, ren)
		}
		return term.Comp(x.Functor, args...)
	default:
		return t
	}
}

func TestDifferentialWAMvsInterp(t *testing.T) {
	for _, c := range diffCorpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := wamSolutions(t, c)
			i := interpSolutions(t, c)
			if !reflect.DeepEqual(w, i) {
				t.Fatalf("engines disagree on %q:\n  wam:    %v\n  interp: %v", c.query, w, i)
			}
		})
	}
}

func TestDifferentialExternalStorage(t *testing.T) {
	// The same corpus with the program stored externally in both forms.
	for _, c := range diffCorpus {
		if c.program == "" {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			star := newSession(t, Options{})
			if err := star.ConsultExternal(c.program); err != nil {
				t.Fatalf("educe* consult: %v", err)
			}
			sols1, err := star.QueryAll(c.query)
			if err != nil {
				t.Fatalf("educe* query: %v", err)
			}
			base := newSession(t, Options{RuleStorage: RuleStorageSource})
			if err := base.ConsultExternal(c.program); err != nil {
				t.Fatalf("educe consult: %v", err)
			}
			sols2, err := base.QueryAll(c.query)
			if err != nil {
				t.Fatalf("educe query: %v", err)
			}
			w, i := renderSolutions(sols1), renderSolutions(sols2)
			if !reflect.DeepEqual(w, i) {
				t.Fatalf("storage modes disagree on %q:\n  compiled: %v\n  source:   %v", c.query, w, i)
			}
		})
	}
}

// TestDifferentialSourceConsult: the corpus consulted into main memory
// answers the same in both rule-storage modes; the source-mode session's
// interpreter reads the consulted clauses.
func TestDifferentialSourceConsult(t *testing.T) {
	for _, c := range diffCorpus {
		t.Run(c.name, func(t *testing.T) {
			w := wamSolutions(t, c)
			base := newSession(t, Options{RuleStorage: RuleStorageSource})
			if err := base.Consult(c.program); err != nil {
				t.Fatalf("consult: %v", err)
			}
			sols, err := base.QueryAll(c.query)
			if err != nil {
				t.Fatalf("source query: %v", err)
			}
			if i := renderSolutions(sols); !reflect.DeepEqual(w, i) {
				t.Fatalf("storage modes disagree on %q:\n  compiled: %v\n  source:   %v", c.query, w, i)
			}
		})
	}
	// Main memory written otherwise than by a consulted clause: a clause
	// asserted through the API, a predicate declared dynamic.
	for _, c := range []struct {
		name  string
		setup func(*Session) error
		query string
		want  []string
	}{
		{"assert-term", func(s *Session) error { return s.AssertTerm(term.Comp("q", term.Int(1)), false) }, "q(X)", []string{"X=1;"}},
		{"dynamic", func(s *Session) error { return s.Consult(":- dynamic(cnt/1).") }, "cnt(X)", []string{}},
		// A declaration consulted after the clauses keeps them.
		{"dynamic-after-consult", func(s *Session) error {
			if err := s.Consult("c(1). c(2)."); err != nil {
				return err
			}
			return s.Consult(":- dynamic(c/1).")
		}, "findall(X, c(X), L)", []string{"L=[1,2];X=_V0;"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
				s := newSession(t, Options{RuleStorage: rs})
				if err := c.setup(s); err != nil {
					t.Fatal(err)
				}
				sols, err := s.QueryAll(c.query)
				if err != nil {
					t.Fatalf("rule storage %d: %s: %v", rs, c.query, err)
				}
				if got := renderSolutions(sols); !reflect.DeepEqual(got, c.want) {
					t.Fatalf("rule storage %d: %s = %v, want %v", rs, c.query, got, c.want)
				}
			}
		})
	}
}
