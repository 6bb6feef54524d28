package core

// bootstrapSrc is the Prolog-level standard library compiled into every
// engine at start-up. Control constructs appear here as ordinary
// predicates so they remain callable through call/N (compiled clause
// bodies get the faster translation into local procedures instead).
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
once(G) :- call(G), !.
ignore(G) :- call(G), !.
ignore(_).
forall(C, A) :- \+ (C, \+ A).

% --- transactions ----------------------------------------------------------
% transaction(G) runs G once inside a KB transaction: commit on success,
% rollback on failure or on any error (the error is rethrown). commit
% itself may throw error(transaction_error(commit_failed), educe); the
% handler's rollback is then a no-op (the engine already rolled back).
transaction(G) :-
	begin,
	catch((call(G) -> commit ; ('$txn_abort', fail)),
	      B,
	      ('$txn_abort', throw(B))).
'$txn_abort' :- catch(rollback, _, true).

% --- all-solutions --------------------------------------------------------
findall(T, G, L) :-
	'$findall_start'(R),
	'$findall_loop'(R, T, G),
	'$findall_collect'(R, L).
'$findall_loop'(R, T, G) :- call(G), '$findall_add'(R, T), fail.
'$findall_loop'(_, _, _).
bagof(T, G, L) :- '$ex_strip'(G, G1), findall(T, G1, L), L \= [].
setof(T, G, S) :- '$ex_strip'(G, G1), findall(T, G1, L), sort(L, S), S \= [].
'$ex_strip'(G, G) :- var(G), !.
'$ex_strip'(_ ^ G, G1) :- !, '$ex_strip'(G, G1).
'$ex_strip'(G, G).
aggregate_all(count, G, N) :- findall(x, G, L), length(L, N).

% --- lists ------------------------------------------------------------------
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
memberchk(X, L) :- member(X, L), !.
reverse(L, R) :- '$rev'(L, [], R).
'$rev'([], A, A).
'$rev'([H|T], A, R) :- '$rev'(T, [H|A], R).
last([X], X) :- !.
last([_|T], X) :- last(T, X).
nth0(N, L, X) :- '$nth'(L, 0, N, X).
nth1(N, L, X) :- '$nth'(L, 1, N, X).
'$nth'([X|_], I, I, X).
'$nth'([_|T], I0, I, X) :- I1 is I0 + 1, '$nth'(T, I1, I, X).
sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S1), S is S1 + H.
max_list([X], X) :- !.
max_list([H|T], M) :- max_list(T, M1), M is max(H, M1).
min_list([X], X) :- !.
min_list([H|T], M) :- min_list(T, M1), M is min(H, M1).
numlist(L, H, []) :- L > H, !.
numlist(L, H, [L|T]) :- L1 is L + 1, numlist(L1, H, T).
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
delete([], _, []).
delete([X|T], X, R) :- !, delete(T, X, R).
delete([H|T], X, [H|R]) :- delete(T, X, R).
exclude(_, [], []).
exclude(P, [H|T], R) :- call(P, H), !, exclude(P, T, R).
exclude(P, [H|T], [H|R]) :- exclude(P, T, R).
include(_, [], []).
include(P, [H|T], [H|R]) :- call(P, H), !, include(P, T, R).
include(P, [H|T], R) :- include(P, T, R).
maplist(_, []).
maplist(P, [H|T]) :- call(P, H), maplist(P, T).
maplist(_, [], []).
maplist(P, [H|T], [H2|T2]) :- call(P, H, H2), maplist(P, T, T2).
`

// loadBootstrap links the library into this session's machine. The
// library is compiled once per knowledge base (it contains no
// directives, so the relocatable units are session-independent);
// sessions share the units and pay only the link step.
func (s *Session) loadBootstrap() error {
	units, order, err := s.kb.bootstrapUnits(s)
	if err != nil {
		return err
	}
	for _, pi := range order {
		if err := s.link(pi, units[pi]); err != nil {
			return err
		}
	}
	// Bootstrap loading should not pollute the phase statistics that
	// benchmarks read.
	s.q.Reset()
	s.cum.Reset()
	return nil
}
