package core

import (
	"reflect"
	"sync"
	"testing"
)

// verdictProgram stores r/2 with one clause that calls a builtin, so under
// StrategySet r falls back to the tuple-at-a-time loader until that clause
// goes. Its answers, as a set, are the same with the clause or without.
const verdictProgram = `
	e(1, a). e(2, b).
	r(X, Y) :- e(X, Y).
	r(X, Y) :- e(X, Y), X > 0.
`

const verdictBuiltinClause = "r(X, Y) :- e(X, Y), X > 0"

var verdictAnswers = []string{"X=1,Y=a", "X=2,Y=b"}

// TestSetopsVerdictFollowsWrites: a rule procedure found not to be Datalog
// falls back once per stored version. Later traps, in any session, take
// the loader path without fetching or decompiling it again; a write to the
// procedure makes the verdict stale, so the next trap decides afresh.
func TestSetopsVerdictFollowsWrites(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s := strategySession(t, kb, StrategySet)
	defer s.Close()
	if err := s.ConsultExternal(verdictProgram); err != nil {
		t.Fatal(err)
	}
	// call runs r(X, Y) in a session, and reports how many fallbacks and
	// fixpoints it counted.
	call := func(in *Session) (fallbacks, fixpoints uint64) {
		t.Helper()
		f0, q0 := kb.setopsFallbacks.Value(), kb.setopsQueries.Value()
		if got := solutionSet(t, in, "r(X, Y)"); !reflect.DeepEqual(got, verdictAnswers) {
			t.Fatalf("r(X, Y) = %v, want %v", got, verdictAnswers)
		}
		return kb.setopsFallbacks.Value() - f0, kb.setopsQueries.Value() - q0
	}
	fresh := func() (fallbacks, fixpoints uint64) {
		t.Helper()
		other := strategySession(t, kb, StrategySet)
		defer other.Close()
		return call(other)
	}

	if f, q := call(s); f != 1 || q != 0 {
		t.Fatalf("first call: %d fallbacks, %d fixpoints; want 1, 0", f, q)
	}
	for i := 0; i < 3; i++ {
		if f, q := fresh(); f != 0 || q != 0 {
			t.Fatalf("call %d in a new session: %d fallbacks, %d fixpoints; want 0, 0", i, f, q)
		}
	}

	if ok, err := s.RetractExternal(mustParseCore(t, verdictBuiltinClause)); !ok || err != nil {
		t.Fatalf("retract: %v %v", ok, err)
	}
	if f, q := call(s); f != 0 || q != 1 {
		t.Fatalf("after the retract: %d fallbacks, %d fixpoints; want 0, 1", f, q)
	}
	if f, q := fresh(); f != 0 || q != 1 {
		t.Fatalf("after the retract, in a new session: %d fallbacks, %d fixpoints; want 0, 1", f, q)
	}

	if err := s.AssertExternalTerm(mustParseCore(t, verdictBuiltinClause)); err != nil {
		t.Fatal(err)
	}
	if f, q := call(s); f != 1 || q != 0 {
		t.Fatalf("after the re-assert: %d fallbacks, %d fixpoints; want 1, 0", f, q)
	}
	if f, q := fresh(); f != 0 || q != 0 {
		t.Fatalf("after the re-assert, in a new session: %d fallbacks, %d fixpoints; want 0, 0", f, q)
	}
}

// TestSetopsVerdictFollowsWritesConcurrently: readers in their own
// sessions trap r/2 while a writer retracts and re-asserts its builtin
// clause, so verdicts are recorded, read and made stale concurrently. Every
// reader sees r's answer set, whichever evaluator served it.
func TestSetopsVerdictFollowsWritesConcurrently(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	w := strategySession(t, kb, StrategySet)
	defer w.Close()
	if err := w.ConsultExternal(verdictProgram); err != nil {
		t.Fatal(err)
	}
	clause := mustParseCore(t, verdictBuiltinClause)
	const readers, rounds = 3, 30
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				in, err := kb.NewSession()
				if err != nil {
					t.Error(err)
					return
				}
				in.SetStrategy(StrategySet)
				got, err := answerSet(in, "r(X, Y)")
				in.Close()
				if err != nil || !reflect.DeepEqual(got, verdictAnswers) {
					t.Errorf("r(X, Y) = %v, %v; want %v", got, err, verdictAnswers)
					return
				}
			}
		}()
	}
	for j := 0; j < rounds; j++ {
		if ok, err := w.RetractExternal(clause); !ok || err != nil {
			t.Fatalf("retract %d: %v %v", j, ok, err)
		}
		if err := w.AssertExternalTerm(clause); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
