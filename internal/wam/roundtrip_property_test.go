package wam_test

// End-to-end property tests: random terms are compiled into fact clauses,
// linked, queried, and must round-trip exactly through the whole
// compiler/loader/emulator/decoder pipeline.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/loader"
	"repro/internal/term"
	"repro/internal/wam"
)

// genGround builds a random ground term from an rng.
func genGround(r *rand.Rand, depth int) term.Term {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return term.Int(int64(r.Intn(2000) - 1000))
		case 1:
			return term.Atom(fmt.Sprintf("a%d", r.Intn(50)))
		case 2:
			return term.Float(float64(r.Intn(1000)) / 8)
		default:
			return term.Atom("[]")
		}
	}
	switch r.Intn(3) {
	case 0: // compound
		n := 1 + r.Intn(3)
		args := make([]term.Term, n)
		for i := range args {
			args[i] = genGround(r, depth-1)
		}
		return term.Comp(fmt.Sprintf("f%d", r.Intn(5)), args...)
	case 1: // list
		n := r.Intn(4)
		items := make([]term.Term, n)
		for i := range items {
			items[i] = genGround(r, depth-1)
		}
		return term.List(items...)
	default:
		return genGround(r, 0)
	}
}

func TestCompileRunRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		tm := genGround(r, 1+r.Intn(3))
		m := wam.NewMachine(nil)
		c := compiler.New(compiler.Options{})
		ccs, err := c.CompileClause(term.Comp("p", tm))
		if err != nil {
			t.Fatalf("compile p(%s): %v", tm, err)
		}
		// Serialise through the EDB codec to cover that path too.
		linked := make([]compiler.ClauseCode, len(ccs))
		for i, cc := range ccs {
			back, err := loader.DecodeClause(loader.EncodeClause(cc))
			if err != nil {
				t.Fatalf("codec round trip: %v", err)
			}
			linked[i] = back
		}
		if _, err := loader.LinkPredicate(m, "p", 1, linked, loader.DefaultOptions); err != nil {
			t.Fatalf("link: %v", err)
		}

		// Mode 1: p(X) binds X to the stored term.
		v := wam.MakeRef(m.NewVar())
		var run wam.Run
		m.Call(&run, m.Dict.Intern("p", 1), []wam.Cell{v})
		ok, err := run.Next()
		if err != nil || !ok {
			t.Fatalf("p(X) failed for %s: %v", tm, err)
		}
		got := m.DecodeTerm(v)
		if got.String() != tm.String() {
			t.Fatalf("round trip: stored %s, got %s", tm, got)
		}
		if ok, _ := run.Next(); ok {
			t.Fatalf("p(X) gave a second solution for %s", tm)
		}

		// Mode 2: p(T) with the exact term succeeds once.
		m.Reset()
		cell := m.EncodeTerm(tm, map[*term.Var]wam.Cell{})
		m.Call(&run, m.Dict.Intern("p", 1), []wam.Cell{cell})
		ok, err = run.Next()
		if err != nil || !ok {
			t.Fatalf("p(%s) failed: %v", tm, err)
		}

		// Mode 3: a structurally different term fails.
		other := term.Comp("zz_not_there", tm)
		m.Reset()
		cell = m.EncodeTerm(other, map[*term.Var]wam.Cell{})
		m.Call(&run, m.Dict.Intern("p", 1), []wam.Cell{cell})
		ok, err = run.Next()
		if err != nil {
			t.Fatalf("p(%s): %v", other, err)
		}
		if ok {
			t.Fatalf("p(%s) unexpectedly succeeded against %s", other, tm)
		}
	}
}

func TestUnifyRenamedCopyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := wam.NewMachine(nil)
	for iter := 0; iter < 300; iter++ {
		tm := genGround(r, 1+r.Intn(3))
		// Introduce variables by replacing random leaves.
		withVars := sprinkleVars(r, tm, 0)
		env1 := map[*term.Var]wam.Cell{}
		env2 := map[*term.Var]wam.Cell{}
		c1 := m.EncodeTerm(withVars, env1)
		c2 := m.EncodeTerm(term.Rename(withVars), env2)
		if !m.Unify(c1, c2) {
			t.Fatalf("term %s does not unify with its renamed copy", withVars)
		}
		m.Reset()
	}
}

func sprinkleVars(r *rand.Rand, t term.Term, depth int) term.Term {
	if r.Intn(5) == 0 {
		return &term.Var{Name: fmt.Sprintf("V%d", r.Intn(4))}
	}
	if c, ok := t.(*term.Compound); ok {
		args := make([]term.Term, len(c.Args))
		for i, a := range c.Args {
			args[i] = sprinkleVars(r, a, depth+1)
		}
		return term.Comp(c.Functor, args...)
	}
	return t
}

func TestUnifySymmetryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		a := sprinkleVars(r, genGround(r, 2), 0)
		b := sprinkleVars(r, genGround(r, 2), 0)

		try := func(x, y term.Term) bool {
			m := wam.NewMachine(nil)
			env := map[*term.Var]wam.Cell{}
			cx := m.EncodeTerm(x, env)
			cy := m.EncodeTerm(y, env) // shared env: same vars shared
			return m.Unify(cx, cy)
		}
		if try(a, b) != try(b, a) {
			t.Fatalf("unification not symmetric for %s vs %s", a, b)
		}
	}
}

func TestGCDifferentialProperty(t *testing.T) {
	// The same computation with an aggressive GC and with GC disabled
	// must produce identical answers.
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		tm := genGround(r, 2)
		run := func(gc bool) string {
			m := wam.NewMachine(nil)
			m.SetGC(gc)
			m.SetGCThreshold(1024)
			c := compiler.New(compiler.Options{})
			src := term.Comp("p", tm)
			ccs, _ := c.CompileClause(src)
			loader.LinkPredicate(m, "p", 1, ccs, loader.DefaultOptions)
			// A predicate that churns heap: q(X) :- p(_), p(_), p(X).
			churn, _ := c.CompileClause(term.Comp(":-",
				term.Comp("q", &term.Var{Name: "X"}),
				term.Comp(",", term.Comp("p", &term.Var{Name: "_A"}),
					term.Comp(",", term.Comp("p", &term.Var{Name: "_B"}),
						term.Comp("p", &term.Var{Name: "X"})))))
			loader.LinkPredicate(m, "q", 1, churn, loader.DefaultOptions)
			v := wam.MakeRef(m.NewVar())
			var runq wam.Run
			m.Call(&runq, m.Dict.Intern("q", 1), []wam.Cell{v})
			ok, err := runq.Next()
			if err != nil || !ok {
				t.Fatalf("q(X): %v %v", ok, err)
			}
			return m.DecodeTerm(v).String()
		}
		if a, b := run(true), run(false); a != b {
			t.Fatalf("GC changed the answer: %s vs %s", a, b)
		}
	}
}
