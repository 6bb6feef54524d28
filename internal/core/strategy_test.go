package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/term"
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
	out, err := answerSet(s, q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	return out
}

// answerSet is solutionSet for a caller off the test's goroutine.
func answerSet(s *Session, q string) ([]string, error) {
	sols, err := s.QueryAll(q)
	if err != nil {
		return nil, err
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
	return out, nil
}

// strategySession opens a session over kb switched to strategy st.
func strategySession(t *testing.T, kb *KnowledgeBase, st Strategy) *Session {
	t.Helper()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s.SetStrategy(st)
	return s
}

// diffStrategies runs every query on a fresh tuple-strategy session and a
// fresh set-strategy session over the same KB and requires identical
// order-insensitive solution sets, with the set session actually having
// exercised the set-at-a-time driver.
func diffStrategies(t *testing.T, kb *KnowledgeBase, queries []string) {
	t.Helper()
	before := kb.setopsQueries.Value()
	for _, q := range queries {
		tup := strategySession(t, kb, StrategyTuple)
		set := strategySession(t, kb, StrategySet)
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

// TestStrategySetReadsFewerPages is the dual-strategy page count
// (EXPERIMENTS.md R5) as a count-based check: on a bound-query workload
// the tuple-at-a-time WAM pays one pre-unified retrieval per call pattern,
// while the set-at-a-time driver scans each stored predicate once and
// serves every query from the fixpoint. Both must return the same
// distinct solutions, and the set session must touch at least 5x fewer
// pages.
func TestStrategySetReadsFewerPages(t *testing.T) {
	// tc: chains disjoint chains of chainLen nodes whose links alternate
	// between two base relations, one bound query per non-final node.
	const chains, chainLen = 60, 20
	var tc strings.Builder
	var tcQueries []string
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen-1; i++ {
			base := [2]string{"fwd", "alt"}[i%2]
			fmt.Fprintf(&tc, "%s(n%d_%d, n%d_%d).\n", base, c, i, c, i+1)
			tcQueries = append(tcQueries, fmt.Sprintf("path(n%d_%d, X)", c, i))
		}
	}
	tc.WriteString(`
		edge(X, Y) :- fwd(X, Y).
		edge(X, Y) :- alt(X, Y).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)
	// sg: a complete binary tree of the given depth whose parent links
	// alternate between mother and father, one bound query per leaf.
	const depth, leaves = 6, 64
	var sg strings.Builder
	for i := 0; i < 1<<(depth+1)-1; i++ {
		fmt.Fprintf(&sg, "node(t%d).\n", i)
		if i > 0 {
			fmt.Fprintf(&sg, "%s(t%d, t%d).\n", [2]string{"father", "mother"}[i%2], i, (i-1)/2)
		}
	}
	sg.WriteString(`
		par(X, P) :- mother(X, P).
		par(X, P) :- father(X, P).
		sg(X, X) :- node(X).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
	`)
	var sgQueries []string
	for i := 0; i < leaves; i++ {
		sgQueries = append(sgQueries, fmt.Sprintf("sg(t%d, Y)", 1<<depth-1+i))
	}

	for _, w := range []struct {
		name, program string
		queries       []string
	}{{"tc", tc.String(), tcQueries}, {"sg", sg.String(), sgQueries}} {
		t.Run(w.name, func(t *testing.T) {
			kb, err := OpenKB(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer kb.Close()
			seed := strategySession(t, kb, StrategyAuto)
			if err := seed.ConsultExternal(w.program); err != nil {
				t.Fatal(err)
			}
			seed.Close()
			var sols [2][]string
			var pages [2]uint64
			for i, st := range []Strategy{StrategyTuple, StrategySet} {
				s := strategySession(t, kb, st)
				for _, q := range w.queries {
					sols[i] = append(sols[i], q+": "+strings.Join(solutionSet(t, s, q), " "))
				}
				pages[i] = s.Cost().PagesTouched
				s.Close()
			}
			if !reflect.DeepEqual(sols[0], sols[1]) {
				t.Errorf("tuple and set strategies disagree on the distinct solutions")
			}
			t.Logf("pages touched: tuple %d, set %d", pages[0], pages[1])
			if pages[1] == 0 || 5*pages[1] > pages[0] {
				t.Errorf("set strategy touched %d pages, tuple %d: want at least 5x fewer", pages[1], pages[0])
			}
		})
	}
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
			s := strategySession(t, kb, st)
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
	e := newSession(t, Options{})
	if err := e.ConsultExternal(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	if got := values(t, e, "path(a, X)", "X"); len(got) != 2 {
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
	got := values(t, e, "reach(x, V)", "V")
	sort.Strings(got)
	if want := []string{"y", "z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline reach(x,V) after switch = %v", got)
	}
	if e.Cost().Asserts == 0 {
		t.Fatal("post-switch query did not run on the baseline interpreter")
	}
}

func TestQueryCtxCancellation(t *testing.T) {
	e := newSession(t, Options{})
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
	if got := values(t, e, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
		t.Fatalf("post-cancel query = %v", got)
	}
}

func TestQueryCtxDeadline(t *testing.T) {
	e := newSession(t, Options{})
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
	if got := values(t, e, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
		t.Fatalf("post-deadline query = %v", got)
	}
}

// TestWithTimeoutRearms checks the per-query budget SetTimeout installs:
// each query gets a fresh one, so a slow query dies while later cheap
// queries on the same session are not bounded by the first query's
// wall-clock instant.
func TestWithTimeoutRearms(t *testing.T) {
	t.Run("SetTimeout", func(t *testing.T) {
		s := newSession(t, Options{})
		s.SetTimeout(60 * time.Millisecond)
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
		if got := values(t, s, "ok(X)", "X"); !reflect.DeepEqual(got, []string{"yes"}) {
			t.Fatalf("query after a timed-out one = %v", got)
		}
	})
}

// TestEduceStrategyBuiltin drives the educe_strategy/1 control builtin:
// reading the current strategy, switching it, and rejecting unknown
// atoms.
func TestEduceStrategyBuiltin(t *testing.T) {
	e := newSession(t, Options{})
	if got := values(t, e, "educe_strategy(S)", "S"); !reflect.DeepEqual(got, []string{"auto"}) {
		t.Fatalf("default strategy = %v", got)
	}
	if n, err := e.QueryCount("educe_strategy(set)"); err != nil || n != 1 {
		t.Fatalf("educe_strategy(set): n=%d err=%v", n, err)
	}
	if got := values(t, e, "educe_strategy(S)", "S"); !reflect.DeepEqual(got, []string{"set"}) {
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
	if got := values(t, s, "hop2(a, X)", "X"); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("hop2(a,X) = %v", got)
	}
	if kb.setopsQueries.Value() != before {
		t.Error("auto strategy used the set driver for a non-recursive predicate")
	}
	got := values(t, s, "path(a, X)", "X")
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
	s := strategySession(t, kb, StrategySet)
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

// maintainFixture opens a knowledge base holding the recursive program of
// the set_rw benchmark over chains of fwd/alt links (chain c is nc_0 ->
// nc_1 -> ... -> nc_<n-1>, even links fwd, odd ones alt), with a session
// under StrategyAuto and one under StrategyTuple.
func maintainFixture(t *testing.T, chains, n int) (auto, tuple *Session) {
	t.Helper()
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	var src strings.Builder
	for c := 0; c < chains; c++ {
		for i := 0; i < n-1; i++ {
			fmt.Fprintf(&src, "%s(n%d_%d, n%d_%d).\n", [2]string{"fwd", "alt"}[i%2], c, i, c, i+1)
		}
	}
	src.WriteString(`
		edge(X, Y) :- fwd(X, Y).
		edge(X, Y) :- alt(X, Y).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)
	auto, tuple = strategySession(t, kb, StrategyAuto), strategySession(t, kb, StrategyTuple)
	t.Cleanup(func() { auto.Close(); tuple.Close() })
	if err := auto.ConsultExternal(src.String()); err != nil {
		t.Fatal(err)
	}
	return auto, tuple
}

// maintainQueries are free, bound-first, bound-second and fully bound
// reads of path/2 over maintainFixture's first chains.
var maintainQueries = []string{
	"path(X, Y)", "path(n0_0, X)", "path(n1_2, X)", "path(X, n0_4)", "path(X, x)",
	"path(n0_0, n0_4)", "path(n0_1, x)",
}

// agree requires auto and tuple to give the same distinct solutions to
// every query.
func agree(t *testing.T, auto, tuple *Session, queries []string) {
	t.Helper()
	for _, q := range queries {
		if got, want := solutionSet(t, auto, q), solutionSet(t, tuple, q); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: auto %v, tuple %v", q, got, want)
		}
	}
}

// pathResult is auto's materialised path/2, or nil.
func pathResult(s *Session) *setopsInfo {
	if rp := s.resident[s.m.Dict.Intern("path", 2)]; rp != nil {
		return rp.setops
	}
	return nil
}

// maintained requires auto's path/2 result to be so, brought up to date
// rather than evaluated afresh.
func maintained(t *testing.T, auto *Session, so *setopsInfo) {
	t.Helper()
	if so == nil || pathResult(auto) != so || so.stale {
		t.Fatalf("path/2 result %p (was %p): not maintained in place", pathResult(auto), so)
	}
}

// TestStrategyMaintainOwnTxnWrite: the session's own retract_external and
// assert_external inside transaction/1 are maintained into the fixpoint,
// read inside the transaction and after its commit.
func TestStrategyMaintainOwnTxnWrite(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	agree(t, auto, tuple, maintainQueries)
	so := pathResult(auto)
	got := values(t, auto, `transaction((retract_external(fwd(n0_2, n0_3)), assert_external(fwd(n0_2, x)),
		findall(X, path(n0_0, X), L0), msort(L0, L)))`, "L")
	if want := []string{"[n0_1,n0_2,x]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("path(n0_0, X) inside the transaction: %v, want %v", got, want)
	}
	maintained(t, auto, so)
	agree(t, auto, tuple, maintainQueries)
	maintained(t, auto, so)
}

// TestStrategyMaintainOtherSessionCommit: another session's committed
// writes reach the fixpoint at the next query, by maintenance.
func TestStrategyMaintainOtherSessionCommit(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	agree(t, auto, tuple, maintainQueries)
	so := pathResult(auto)
	w, err := auto.KB().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if ok, err := w.RetractExternal(mustParseCore(t, "alt(n0_1, n0_2)")); !ok || err != nil {
		t.Fatalf("retract: %v %v", ok, err)
	}
	if err := w.AssertExternalTerm(mustParseCore(t, "fwd(n0_1, x)")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	agree(t, auto, tuple, maintainQueries)
	maintained(t, auto, so)
}

// TestStrategyMaintainRollback: a fixpoint maintained inside a
// transaction is maintained back when the transaction rolls back.
func TestStrategyMaintainRollback(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	before := map[string][]string{}
	for _, q := range maintainQueries {
		before[q] = solutionSet(t, auto, q)
	}
	so := pathResult(auto)
	if err := auto.Begin(); err != nil {
		t.Fatal(err)
	}
	if ok, err := auto.RetractExternal(mustParseCore(t, "fwd(n0_0, n0_1)")); !ok || err != nil {
		t.Fatalf("retract: %v %v", ok, err)
	}
	if err := auto.AssertExternalTerm(mustParseCore(t, "alt(n0_3, x)")); err != nil {
		t.Fatal(err)
	}
	if got := solutionSet(t, auto, "path(n0_0, X)"); len(got) != 0 {
		t.Fatalf("path(n0_0, X) inside the transaction: %v, want none", got)
	}
	if got := solutionSet(t, auto, "path(n0_2, X)"); !reflect.DeepEqual(got, []string{"X=n0_3", "X=n0_4", "X=n0_5", "X=x"}) {
		t.Fatalf("path(n0_2, X) inside the transaction: %v", got)
	}
	if err := auto.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, q := range maintainQueries {
		if got := solutionSet(t, auto, q); !reflect.DeepEqual(got, before[q]) {
			t.Errorf("%s after rollback: %v, want %v", q, got, before[q])
		}
	}
	maintained(t, auto, so)
	agree(t, auto, tuple, maintainQueries)
}

// TestStrategyMaintainBoundReads: bound reads of a result whose column
// indexes were built before its tuples were deleted — dead slots in the
// indexes, then compactions — agree with the tuple strategy over many
// write rounds.
func TestStrategyMaintainBoundReads(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	agree(t, auto, tuple, maintainQueries)
	so := pathResult(auto)
	for i := 0; i < 40; i++ {
		// Cut and restore links of chain 0 in turn, and move an extra tail
		// edge between x0 and x1: every round deletes tuples the indexes
		// already hold.
		link := fmt.Sprintf("%s(n0_%d, n0_%d)", [2]string{"fwd", "alt"}[i%5%2], i%5, i%5+1)
		w := fmt.Sprintf("retract_external(%s), assert_external(fwd(n1_5, x%d))", link, i%2)
		if i > 0 {
			w += fmt.Sprintf(", retract_external(fwd(n1_5, x%d))", (i+1)%2)
		}
		if n, err := auto.QueryCount(w); err != nil || n != 1 {
			t.Fatalf("round %d: %s: n=%d err=%v", i, w, n, err)
		}
		agree(t, auto, tuple, []string{"path(n0_0, X)", "path(X, n0_5)", "path(n1_0, X)", "path(X, x0)", "path(n0_1, n0_3)"})
		if n, err := auto.QueryCount("assert_external(" + link + ")"); err != nil || n != 1 {
			t.Fatalf("round %d: restore %s: n=%d err=%v", i, link, n, err)
		}
		agree(t, auto, tuple, []string{"path(n0_0, X)", "path(X, n0_3)"})
	}
	maintained(t, auto, so)
}

// TestStrategyMaintainRuleEdit: a change to a rule procedure of the
// closure is not maintained: the next call evaluates afresh.
func TestStrategyMaintainRuleEdit(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	agree(t, auto, tuple, maintainQueries)
	so := pathResult(auto)
	if err := auto.ConsultExternal("side(n0_5, y). edge(X, Y) :- side(X, Y)."); err != nil {
		t.Fatal(err)
	}
	agree(t, auto, tuple, append(maintainQueries, "path(n0_0, y)"))
	if now := pathResult(auto); now == nil || now == so {
		t.Fatalf("path/2 result %p after a rule edit, was %p: want a fresh evaluation", now, so)
	}
}

// TestStrategyMaintainKeyedOrder: a call binding an atom argument, served
// from the column index, returns the solutions of a full scan filtered
// by unification, in the same order, over a result with deleted slots.
func TestStrategyMaintainKeyedOrder(t *testing.T) {
	auto, _ := maintainFixture(t, 3, 6)
	for _, w := range []string{"assert_external(alt(n0_3, x))", "retract_external(fwd(n0_2, n0_3))",
		"assert_external(fwd(n0_2, n0_3))", "retract_external(alt(n0_3, x))"} {
		for _, p := range [][2]string{
			{"path(n0_0, X)", "path(A, X), A == n0_0"},
			{"path(X, n0_4)", "path(X, B), B == n0_4"},
			{"path(n0_2, n0_4), X = t", "path(A, B), A == n0_2, B == n0_4, X = t"},
		} {
			keyed := values(t, auto, fmt.Sprintf("findall(X, (%s), L)", p[0]), "L")
			scan := values(t, auto, fmt.Sprintf("findall(X, (%s), L)", p[1]), "L")
			if !reflect.DeepEqual(keyed, scan) {
				t.Errorf("after %s: keyed %s gives %v, full scan %v", w, p[0], keyed, scan)
			}
		}
		if n, err := auto.QueryCount(w); err != nil || n != 1 {
			t.Fatalf("%s: n=%d err=%v", w, n, err)
		}
	}
}

// TestStrategyMaintainTablesStayFlat runs set_rw-shaped rounds in one
// session — retract the previous tail edge, assert a new one in a
// transaction, read path/2 bound — and requires the maintained result's
// slots (live and dead), the Go heap after a collection, and the
// machine's block and builtin tables to stay flat between rounds 1000 and
// 2000.
func TestStrategyMaintainTablesStayFlat(t *testing.T) {
	const chains, n, rounds = 8, 12, 2000
	auto, _ := maintainFixture(t, chains, n)
	var so *setopsInfo
	var heap [2]uint64
	var tables [2]wam.Stats
	last := ""
	for i := 1; i <= rounds; i++ {
		c := i % chains
		edge := fmt.Sprintf("fwd(n%d_%d, x%d)", c, n-1, i%2)
		w := "assert_external(" + edge + ")"
		if last != "" {
			w = "retract_external(" + last + "), " + w
		}
		if k, err := auto.QueryCount("transaction((" + w + "))"); err != nil || k != 1 {
			t.Fatalf("round %d: %s: n=%d err=%v", i, w, k, err)
		}
		last = edge
		for _, r := range []struct {
			q    string
			want int
		}{
			{fmt.Sprintf("path(n%d_0, X)", c), n},                // the chain and the new tail edge
			{fmt.Sprintf("path(n%d_3, X)", (c+1)%chains), n - 4}, // a chain without one
		} {
			if k, err := auto.QueryCount(r.q); err != nil || k != r.want {
				t.Fatalf("round %d: %s: %d solutions (err %v), want %d", i, r.q, k, err, r.want)
			}
		}
		if i == 1 {
			so = pathResult(auto)
		}
		if i == rounds/2 || i == rounds {
			maintained(t, auto, so)
			res := so.totals[term.Indicator{Name: "path", Arity: 2}]
			slots, live := len(res.Tuples()), res.Len()
			if slots > 2*live {
				t.Fatalf("round %d: %d slots for %d live tuples: compaction did not run", i, slots, live)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			k := i / rounds
			heap[k], tables[k] = ms.HeapAlloc, auto.Machine().Stats()
			t.Logf("round %d: %d slots, %d live; heap %d KiB; blocks %d, builtins %d", i, slots, live,
				ms.HeapAlloc>>10, tables[k].Blocks, tables[k].Builtins)
		}
	}
	if tables[1].Blocks != tables[0].Blocks || tables[1].Builtins != tables[0].Builtins {
		t.Errorf("code tables grew from round %d to %d: %+v -> %+v", rounds/2, rounds, tables[0], tables[1])
	}
	if heap[1] > heap[0]+heap[0]/4 {
		t.Errorf("heap grew from %d KiB at round %d to %d KiB at round %d", heap[0]>>10, rounds/2, heap[1]>>10, rounds)
	}
}

// TestStrategyParkedBlockKept: a fixpoint parked by a leaf write is
// uninstalled but keeps its block. A reclaim sweep frees only retired slots,
// so the goal texts linked after it cannot take the parked block's slot,
// and the next call maintains the result and runs it from that block.
func TestStrategyParkedBlockKept(t *testing.T) {
	auto, tuple := maintainFixture(t, 3, 6)
	agree(t, auto, tuple, maintainQueries)
	so := pathResult(auto)
	if err := tuple.AssertExternalTerm(mustParseCore(t, "fwd(n0_5, y)")); err != nil {
		t.Fatal(err)
	}
	// Each text parks nothing new, resets the machine (a sweep) and links
	// its own $query block, into a freed slot while there is one.
	for i := 0; i < 64; i++ {
		if got := values(t, auto, fmt.Sprintf("X = %d, Y = X", i), "Y"); len(got) != 1 {
			t.Fatalf("text %d: %v", i, got)
		}
	}
	if !so.stale || auto.m.Proc(so.proc.Fn) != nil {
		t.Fatalf("path/2 result not parked: stale=%v", so.stale)
	}
	for q, lq := range auto.queries {
		if lq.proc != nil && lq.proc.Block.ID == so.proc.Block.ID {
			t.Fatalf("%q linked into the parked fixpoint's slot %d", q, so.proc.Block.ID)
		}
	}
	agree(t, auto, tuple, maintainQueries)
	maintained(t, auto, so)
	if p := auto.m.Proc(so.proc.Fn); p != so.proc {
		t.Fatalf("path/2 installed as %p, want the maintained result %p", p, so.proc)
	}
}
