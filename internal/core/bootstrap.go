package core

import "repro/internal/interp"

// bootstrapSrc is the Prolog-level standard library compiled into every
// engine at start-up: the part that stands on WAM builtins, then the
// library the interpreter shares. Control constructs appear here as
// ordinary predicates so they remain callable through call/N (compiled
// clause bodies get the faster translation into local procedures instead).
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

% --- findall over the WAM's collector ----------------------------------------
findall(T, G, L) :-
	'$findall_start'(R),
	'$findall_loop'(R, T, G),
	'$findall_collect'(R, L).
'$findall_loop'(R, T, G) :- call(G), '$findall_add'(R, T), fail.
'$findall_loop'(_, _, _).
` + interp.Library

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
		if _, err := s.link(s.m.Dict.Intern(pi.Name, pi.Arity), units[pi]); err != nil {
			return err
		}
	}
	// Bootstrap loading should not pollute the phase statistics that
	// benchmarks read.
	s.q.Reset()
	s.cum.Reset()
	return nil
}
