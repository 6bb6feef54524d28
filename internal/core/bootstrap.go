package core

import (
	"sync"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/term"
)

// bootstrapSrc is the Prolog-level standard library: the control constructs
// and findall/3 over WAM builtins, then the library both evaluators load.
// Control constructs appear here as ordinary predicates so they remain
// callable through call/N (compiled clause bodies get the faster
// translation into local procedures instead). It is compiled once per
// process (library) and a session links a predicate of it at its first
// call, as it links its own code.
const bootstrapSrc = `
% --- control, callable via metacall -------------------------------------
','(A, B) :- call(A), call(B).
';'(ITE, Else) :- nonvar(ITE), ITE = (C -> T), !, '$ite'(C, T, Else).
';'(A, _) :- call(A).
';'(_, B) :- call(B).
'$ite'(C, T, _) :- call(C), !, call(T).
'$ite'(_, _, E) :- call(E).
'->'(C, T) :- '$ite'(C, T, fail).
'\\+'(G) :- call(G), !, fail.
'\\+'(_).
not(G) :- \+ G.

% --- findall over the WAM's collector ----------------------------------------
findall(T, G, L) :-
	'$findall_start'(R),
	'$findall_loop'(R, T, G),
	'$findall_collect'(R, L).
'$findall_loop'(R, T, G) :- call(G), '$findall_add'(R, T), fail.
'$findall_loop'(_, _, _).
` + interp.Library

// library is bootstrapSrc compiled once per process: each predicate's
// clauses, every one with its code, read by every session and written by
// none. It contains no directives, and a clause compiles to the same code
// whatever the session, so one table serves them all.
var library = sync.OnceValue(func() map[term.Indicator][]interp.Clause {
	terms, err := parser.New(bootstrapSrc).ReadAll()
	lib := map[term.Indicator][]interp.Clause{}
	comp := compiler.New(compiler.Options{})
	for i := 0; i < len(terms) && err == nil; i++ {
		var ccs []compiler.ClauseCode
		if ccs, err = comp.CompileClause(terms[i]); err == nil {
			lib[ccs[0].Pred] = append(lib[ccs[0].Pred], interp.Clause{Term: terms[i], Code: &ccs[0]})
		}
	}
	if err != nil {
		panic("core: library: " + err.Error())
	}
	return lib
})
