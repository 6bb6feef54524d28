package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wam"
)

// solutionSet runs q on s and returns the sorted set of distinct
// solutions, each rendered as "Var=Val" joined by commas — an
// order-insensitive fingerprint for differential comparison. Duplicates
// are collapsed: tuple-at-a-time resolution re-derives the same answer
// once per proof (bag semantics), while the set-at-a-time driver dedups
// by construction (set semantics, DESIGN.md §14); the differential
// contract is on the solution *set*.
func solutionSet(t *testing.T, s *Session, q string) []string {
	t.Helper()
	sols, err := s.QueryAll(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(sols))
	for _, m := range sols {
		var names []string
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		var parts []string
		for _, n := range names {
			parts = append(parts, n+"="+m[n].String())
		}
		fp := strings.Join(parts, ",")
		if !seen[fp] {
			seen[fp] = true
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out
}

// diffStrategies runs every query on a fresh tuple-strategy session and a
// fresh set-strategy session over the same KB and requires identical
// order-insensitive solution sets, with the set session actually having
// exercised the set-at-a-time driver.
func diffStrategies(t *testing.T, kb *KnowledgeBase, queries []string) {
	t.Helper()
	before := kb.setopsQueries.Value()
	for _, q := range queries {
		tup, err := kb.NewSession(WithStrategy(StrategyTuple))
		if err != nil {
			t.Fatal(err)
		}
		set, err := kb.NewSession(WithStrategy(StrategySet))
		if err != nil {
			t.Fatal(err)
		}
		want := solutionSet(t, tup, q)
		got := solutionSet(t, set, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %s: set strategy %v, tuple strategy %v", q, got, want)
		}
		tup.Close()
		set.Close()
	}
	if kb.setopsQueries.Value() == before {
		t.Error("set-strategy sessions never used the set-at-a-time driver")
	}
}

func TestStrategyDifferentialTC(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	seed, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	// Acyclic graph: the tuple-at-a-time baseline diverges on cycles
	// (depth-first resolution re-derives paths forever), so cyclic
	// termination is a set-only property (tested in internal/setops);
	// the differential contract holds where both strategies terminate.
	if err := seed.ConsultExternal(`
		edge(a, b). edge(b, c). edge(c, d). edge(d, e).
		edge(b, f). edge(f, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	diffStrategies(t, kb, []string{
		"path(X, Y)", "path(a, X)", "path(X, d)", "path(b, c)", "path(a, zzz)",
		// The second call reaches the already materialized result with
		// both arguments bound.
		"path(X, Y), path(Y, e)",
	})
}

func TestStrategyDifferentialSameGeneration(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	seed, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := seed.ConsultExternal(`
		node(a). node(b). node(c). node(d). node(e). node(f). node(g).
		par(b, a). par(c, a). par(d, b). par(e, b). par(f, c). par(g, c).
		sg(X, X) :- node(X).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
	`); err != nil {
		t.Fatal(err)
	}
	diffStrategies(t, kb, []string{"sg(X, Y)", "sg(d, X)", "sg(d, g)"})
}

func TestStrategyDifferentialAncestor(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	seed, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := seed.ConsultExternal(`
		parent(tom, bob). parent(tom, liz). parent(bob, ann).
		parent(bob, pat). parent(pat, jim). parent(liz, joe).
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	diffStrategies(t, kb, []string{"ancestor(X, Y)", "ancestor(tom, X)", "ancestor(X, jim)"})
}

// TestStrategyDifferentialUnderTxn checks that set-at-a-time results see
// a transaction's own uncommitted writes, and that a rollback drops them
// from both strategies alike: materialized relations must be rebuilt from
// the restored EDB, not served stale.
func TestStrategyDifferentialUnderTxn(t *testing.T) {
	for _, st := range []Strategy{StrategyTuple, StrategySet} {
		t.Run(st.String(), func(t *testing.T) {
			kb, err := OpenKB(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer kb.Close()
			s, err := kb.NewSession(WithStrategy(st))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.ConsultExternal(`
				edge(a, b). edge(b, c).
				path(X, Y) :- edge(X, Y).
				path(X, Z) :- edge(X, Y), path(Y, Z).
			`); err != nil {
				t.Fatal(err)
			}
			base := solutionSet(t, s, "path(a, X)")
			if want := []string{"X=b", "X=c"}; !reflect.DeepEqual(base, want) {
				t.Fatalf("pre-txn path(a,X) = %v, want %v", base, want)
			}

			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := s.AssertExternalTerm(mustParseCore(t, "edge(c, d)")); err != nil {
				t.Fatal(err)
			}
			inTxn := solutionSet(t, s, "path(a, X)")
			if want := []string{"X=b", "X=c", "X=d"}; !reflect.DeepEqual(inTxn, want) {
				t.Fatalf("in-txn path(a,X) = %v, want %v", inTxn, want)
			}
			if err := s.Rollback(); err != nil {
				t.Fatal(err)
			}
			after := solutionSet(t, s, "path(a, X)")
			if !reflect.DeepEqual(after, base) {
				t.Fatalf("post-rollback path(a,X) = %v, want %v", after, base)
			}
		})
	}
}

// TestSetRuleStorageGuard pins the repaired SetRuleStorage contract: a
// no-op switch succeeds silently, switching modes inside an open
// transaction is rejected with store.ErrTxnOpen, and a successful switch
// drops loaded code so the next query resolves in the new mode.
func TestSetRuleStorageGuard(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.ConsultExternal(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	if got := sessionValues(t, e.Session, "path(a, X)", "X"); len(got) != 2 {
		t.Fatalf("compiled path(a,X) = %v", got)
	}

	if err := e.SetRuleStorage(RuleStorageCompiled); err != nil {
		t.Fatalf("no-op switch: %v", err)
	}

	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRuleStorage(RuleStorageSource); !errors.Is(err, store.ErrTxnOpen) {
		t.Fatalf("switch inside txn: err = %v, want store.ErrTxnOpen", err)
	}
	if e.RuleStorage() != RuleStorageCompiled {
		t.Fatal("rejected switch still changed the mode")
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}

	if err := e.SetRuleStorage(RuleStorageSource); err != nil {
		t.Fatalf("switch between queries: %v", err)
	}
	// Rule storage selects the *storage format* at consult time, so the
	// switch governs newly consulted predicates; path/2 above remains
	// compiled-form and is no longer evaluable. New source-form rules
	// must run on the baseline interpreter.
	if err := e.ConsultExternal(`
		link(x, y). link(y, z).
		reach(A, B) :- link(A, B).
		reach(A, C) :- link(A, B), reach(B, C).
	`); err != nil {
		t.Fatal(err)
	}
	got := sessionValues(t, e.Session, "reach(x, V)", "V")
	sort.Strings(got)
	if want := []string{"y", "z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline reach(x,V) after switch = %v", got)
	}
	if e.Stats().Phases.Asserts == 0 {
		t.Fatal("post-switch query did not run on the baseline interpreter")
	}
}

// values on a plain Session (the engine_test helper takes *Engine).
func sessionValues(t *testing.T, s *Session, q, v string) []string {
	t.Helper()
	sols, err := s.QueryAll(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	var out []string
	for _, m := range sols {
		out = append(out, m[v].String())
	}
	return out
}

func TestQueryCtxCancellation(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.Consult("loop :- loop."); err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled context fails fast at Query time.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryCtx(cancelled, "loop"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled QueryCtx err = %v", err)
	}

	// Cancellation mid-resolution interrupts the machine and surfaces as
	// the context's error.
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	sols, err := e.QueryCtx(ctx, "loop")
	if err != nil {
		t.Fatal(err)
	}
	if sols.Next() {
		t.Fatal("divergent goal produced a solution")
	}
	if err := sols.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Next err = %v, want context.Canceled", err)
	}

	// The session survives and later queries are unaffected.
	if err := e.Consult("ok(yes)."); err != nil {
		t.Fatal(err)
	}
	if got := sessionValues(t, e.Session, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
		t.Fatalf("post-cancel query = %v", got)
	}
}

func TestQueryCtxDeadline(t *testing.T) {
	e := newEngine(t, Options{})
	if err := e.Consult("loop :- loop."); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sols, err := e.QueryCtx(ctx, "loop")
	if err != nil {
		t.Fatal(err)
	}
	if sols.Next() {
		t.Fatal("divergent goal produced a solution")
	}
	if err := sols.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Next err = %v, want context.DeadlineExceeded", err)
	}
	// The expired context deadline must not bound the next query.
	if err := e.Consult("ok(yes)."); err != nil {
		t.Fatal(err)
	}
	if got := sessionValues(t, e.Session, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
		t.Fatalf("post-deadline query = %v", got)
	}
}

// TestWithTimeoutRearms checks the per-query budget, however it is set
// (the WithTimeout option or SetTimeout): each query gets a fresh one, so
// a slow query dies while later cheap queries on the same session are not
// bounded by the first query's wall-clock instant.
func TestWithTimeoutRearms(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	for name, open := range map[string]func() (*Session, error){
		"WithTimeout": func() (*Session, error) { return kb.NewSession(WithTimeout(60 * time.Millisecond)) },
		"SetTimeout": func() (*Session, error) {
			s, err := kb.NewSession()
			if err == nil {
				s.SetTimeout(60 * time.Millisecond)
			}
			return s, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Consult("loop :- loop. ok(yes)."); err != nil {
				t.Fatal(err)
			}
			sols, err := s.Query("loop")
			if err != nil {
				t.Fatal(err)
			}
			if sols.Next() {
				t.Fatal("divergent goal produced a solution")
			}
			if sols.Err() != wam.ErrTimeout {
				t.Fatalf("timed-out query err = %v, want the timeout ball", sols.Err())
			}
			// Sleep past the first query's deadline instant; the next query
			// must still succeed because its budget starts at query start.
			time.Sleep(80 * time.Millisecond)
			if got := sessionValues(t, s, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
				t.Fatalf("query after a timed-out one = %v", got)
			}
		})
	}
}

// TestEduceStrategyBuiltin drives the educe_strategy/1 control builtin:
// reading the current strategy, switching it, and rejecting unknown
// atoms.
func TestEduceStrategyBuiltin(t *testing.T) {
	e := newEngine(t, Options{})
	if got := sessionValues(t, e.Session, "educe_strategy(S)", "S"); !reflect.DeepEqual(got, []string{"auto"}) {
		t.Fatalf("default strategy = %v", got)
	}
	if n, err := e.QueryCount("educe_strategy(set)"); err != nil || n != 1 {
		t.Fatalf("educe_strategy(set): n=%d err=%v", n, err)
	}
	if got := sessionValues(t, e.Session, "educe_strategy(S)", "S"); !reflect.DeepEqual(got, []string{"set"}) {
		t.Fatalf("strategy after switch = %v", got)
	}
	if e.Strategy() != StrategySet {
		t.Fatalf("Session.Strategy() = %v after educe_strategy(set)", e.Strategy())
	}
	if _, err := e.QueryAll("educe_strategy(bogus)"); err == nil {
		t.Fatal("educe_strategy(bogus) succeeded")
	}
}

// TestStrategyAutoRecursiveOnly pins StrategyAuto's scope: recursive
// predicates go through the set-at-a-time driver, non-recursive stored
// rules stay on the tuple-at-a-time WAM path.
func TestStrategyAutoRecursiveOnly(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession() // default StrategyAuto
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ConsultExternal(`
		edge(a, b). edge(b, c).
		hop2(X, Z) :- edge(X, Y), edge(Y, Z).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	before := kb.setopsQueries.Value()
	if got := sessionValues(t, s, "hop2(a, X)", "X"); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("hop2(a,X) = %v", got)
	}
	if kb.setopsQueries.Value() != before {
		t.Error("auto strategy used the set driver for a non-recursive predicate")
	}
	got := sessionValues(t, s, "path(a, X)", "X")
	sort.Strings(got)
	if want := []string{"b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("path(a,X) = %v", got)
	}
	if kb.setopsQueries.Value() == before {
		t.Error("auto strategy did not use the set driver for a recursive predicate")
	}
}

// TestSetStrategyInvalidation checks that a materialized set-at-a-time
// result is rebuilt after the underlying EDB facts change.
func TestSetStrategyInvalidation(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession(WithStrategy(StrategySet))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ConsultExternal(`
		edge(a, b).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	if got := solutionSet(t, s, "path(a, X)"); !reflect.DeepEqual(got, []string{"X=b"}) {
		t.Fatalf("path(a,X) = %v", got)
	}
	if err := s.AssertExternalTerm(mustParseCore(t, "edge(b, c)")); err != nil {
		t.Fatal(err)
	}
	got := solutionSet(t, s, "path(a, X)")
	if want := []string{"X=b", "X=c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("path(a,X) after assert = %v, want %v", got, want)
	}
}
