package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/wam"
)

// The trap finds a stored procedure in the knowledge base's procedures
// table when it is called; nothing about stored procedures is registered
// with a session ahead of the call.

// TestTrapSeesRuleStoredOverFacts: in source mode, a rule stored into a
// facts-only procedure takes the procedure off the tuple path at its next
// call, in the session that wrote it and in one opened between the writes.
func TestTrapSeesRuleStoredOverFacts(t *testing.T) {
	kb, err := OpenKB(Options{RuleStorage: RuleStorageSource})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	open := func() *Session {
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	w := open()
	if err := w.ConsultExternal("f(1). g(2)."); err != nil {
		t.Fatal(err)
	}
	between := open()
	if got := values(t, between, "f(X)", "X"); !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("f(X) over the facts = %v", got)
	}
	if err := w.ConsultExternal("f(X) :- g(X)."); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"writer": w, "between": between, "fresh": open()} {
		if got := values(t, s, "f(X)", "X"); !reflect.DeepEqual(got, []string{"1", "2"}) {
			t.Errorf("%s session: f(X) = %v, want [1 2]", name, got)
		}
	}
}

// TestAssertShadowsStoredFacts: a clause asserted in main memory defines
// the predicate for the session in both modes, over the stored facts.
func TestAssertShadowsStoredFacts(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		s := newSession(t, Options{RuleStorage: rs})
		if err := s.ConsultExternal("e(1)."); err != nil {
			t.Fatal(err)
		}
		if got := values(t, s, "assert(e(2)), e(X)", "X"); !reflect.DeepEqual(got, []string{"2"}) {
			t.Errorf("rule storage %d: assert(e(2)), e(X) = %v, want [2]", rs, got)
		}
	}
}

// TestNewSessionRegistersNoStoredProcedure: a session's dictionary does
// not grow with the number of procedures stored in its knowledge base.
func TestNewSessionRegistersNoStoredProcedure(t *testing.T) {
	live := func(procs int) int {
		kb, err := OpenKB(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer kb.Close()
		var src strings.Builder
		for i := 0; i < procs; i++ {
			fmt.Fprintf(&src, "stored%d(%d).\n", i, i)
		}
		w, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.ConsultExternal(src.String()); err != nil {
			t.Fatal(err)
		}
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Stats().Dict.Live
	}
	if empty, full := live(0), live(1000); full != empty {
		t.Fatalf("new session's dictionary: %d entries over 1000 stored procedures, %d over none", full, empty)
	}
}

// TestLibraryLinksAtCall: a new session links nothing, so its block table
// holds only the machine's own blocks. A library predicate is linked from
// the table compiled once per process at its first call, as one block and
// with no compile time; a second call adds nothing, and a second session
// compiles nothing either.
func TestLibraryLinksAtCall(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	own := wam.NewMachine(nil).Stats().Blocks
	for i := 0; i < 2; i++ {
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.Machine().Stats().Blocks; got != own {
			t.Fatalf("session %d: a fresh block table holds %d blocks, want the machine's own %d", i, got, own)
		}
		call := func() {
			if sol, ok, err := s.QueryOnce("append(X, Y, Z)"); err != nil || !ok || sol["X"].String() != "[]" {
				t.Fatalf("session %d: append(X, Y, Z) = %v, %v, %v; want X = []", i, sol, ok, err)
			}
		}
		call()
		if got := s.Machine().Stats().Blocks; got != own+1 {
			t.Fatalf("session %d: block table %d -> %d at the first call, want one block more", i, own, got)
		}
		if cost := s.Cost(); cost.Phases.Get(obs.PhaseCompile) != 0 {
			t.Fatalf("session %d: the first call spent %v compiling", i, cost.Phases.Get(obs.PhaseCompile))
		}
		noLink(t, s, "the second call", call)
		if got := s.Machine().Stats().Blocks; got != own+1 {
			t.Fatalf("session %d: block table %d -> %d at the second call, want no block more", i, own+1, got)
		}
	}
}

// TestMainMemoryOverLoadedCode: main-memory code linked over a loaded
// stored procedure only uninstalls it, so once that code is abolished and
// other code has been linked since, the next call runs the stored
// procedure's resident code intact.
func TestMainMemoryOverLoadedCode(t *testing.T) {
	s := newSession(t, Options{})
	if err := s.ConsultExternal("q(1). q(2). w(1). w(2). r(X) :- q(X), w(X), X > 0."); err != nil {
		t.Fatal(err)
	}
	want := []string{"[1,2]"}
	if got := values(t, s, "findall(X, r(X), L)", "L"); !reflect.DeepEqual(got, want) {
		t.Fatalf("r/1 loaded: %v, want %v", got, want)
	}
	if _, err := s.QueryAll("assert(r(9)), abolish(r/1)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // goal texts linking their own code
		values(t, s, fmt.Sprintf("Z = %d, findall(Y, (member(Y, [a, b]), Y \\== Z), K)", i), "K")
	}
	if got := values(t, s, "findall(X, r(X), L)", "L"); !reflect.DeepEqual(got, want) {
		t.Fatalf("r/1 after assert and abolish: %v, want %v", got, want)
	}
}
