package interp

// Library is the Prolog library both evaluators load: the interpreter
// asserts it into every instance, and the engine compiles it into every
// machine after the control constructs, findall/3 and transaction/1, which
// it defines over WAM builtins of its own. It contains no directives.
const Library = `
once(G) :- call(G), !.
ignore(G) :- call(G), !.
ignore(_).
forall(C, A) :- \+ (C, \+ A).

% --- all-solutions --------------------------------------------------------
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
