package wam

import (
	"errors"
	"testing"

	"repro/internal/term"
)

// TestSolutionQuotaKillsEnumeration proves the solution cap fires at the
// solution boundary (not only at the amortized instruction poll): a
// three-clause predicate under a two-solution quota delivers exactly two
// answers and then dies with resource_error(solutions).
func TestSolutionQuotaKillsEnumeration(t *testing.T) {
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	b := m.Dict.Intern("b", 0)
	c := m.Dict.Intern("c", 0)
	fn := defineProc(m, "p", 1, []Instr{
		{Op: OpTryMeElse, L: 3},
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
		{Op: OpRetryMeElse, L: 6},
		{Op: OpGetConstant, Fn: b, Arg: 0},
		{Op: OpProceed},
		{Op: OpTrustMe},
		{Op: OpGetConstant, Fn: c, Arg: 0},
		{Op: OpProceed},
	})
	m.SetQuota(Quota{Solutions: 2})
	v := MakeRef(m.NewVar())
	var run Run
	m.Call(&run, fn, []Cell{v})
	for i := 0; i < 2; i++ {
		ok, err := run.Next()
		if err != nil || !ok {
			t.Fatalf("solution %d: ok=%v err=%v", i+1, ok, err)
		}
	}
	ok, err := run.Next()
	if ok {
		t.Fatalf("third solution delivered past a 2-solution quota")
	}
	if got := ResourceKind(err); got != "solutions" {
		t.Fatalf("ResourceKind(%v) = %q, want solutions", err, got)
	}
}

// TestSolutionQuotaResetsPerQuery proves the counter is per Call: a
// second query on the same machine gets a fresh budget.
func TestSolutionQuotaResetsPerQuery(t *testing.T) {
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	fn := defineProc(m, "q", 1, []Instr{
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
	})
	m.SetQuota(Quota{Solutions: 1})
	for round := 0; round < 3; round++ {
		m.Reset()
		v := MakeRef(m.NewVar())
		var run Run
		m.Call(&run, fn, []Cell{v})
		ok, err := run.Next()
		if err != nil || !ok {
			t.Fatalf("round %d: ok=%v err=%v", round, ok, err)
		}
	}
}

// TestCheckHookAbortsQuery proves a session-level hook error surfaces as
// the query's error.
func TestCheckHookAbortsQuery(t *testing.T) {
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	fn := defineProc(m, "r", 1, []Instr{
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
	})
	m.SetCheckHook(func() error { return ResourceBall("pages") })
	v := MakeRef(m.NewVar())
	var run Run
	m.Call(&run, fn, []Cell{v})
	ok, err := run.Next()
	if ok {
		t.Fatalf("solution delivered despite failing check hook")
	}
	if got := ResourceKind(err); got != "pages" {
		t.Fatalf("ResourceKind(%v) = %q, want pages", err, got)
	}
}

func TestResourceKind(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{ResourceBall("heap"), "heap"},
		{ResourceBall("trail"), "trail"},
		{errors.New("plain"), ""},
		{&ErrBall{Term: term.Comp("error", term.Atom("timeout"), term.Atom("educe"))}, ""},
		{&ErrBall{Term: term.Atom("oops")}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := ResourceKind(c.err); got != c.want {
			t.Errorf("ResourceKind(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
