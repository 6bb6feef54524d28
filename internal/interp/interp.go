// Package interp is a classical resolution interpreter over source-form
// clauses. It plays the role of the original Educe's rule evaluator in the
// benchmarks (paper §2): rules fetched from the EDB as text are parsed,
// asserted into this interpreter, executed by tree walking, and erased —
// the exact cost profile the paper identifies as the motivation for
// storing compiled code instead.
package interp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/term"
)

// Clause is one asserted clause.
type Clause struct {
	Head term.Term
	Body term.Term
}

// Interp is an interpreter instance holding an asserted program.
type Interp struct {
	clauses map[term.Indicator][]*Clause
	// firstArgIndex caches constant-first-arg clause subsets per
	// predicate; invalidated on assert/retract.
	builtins map[term.Indicator]builtinFn

	// OnUndefined, if set, is consulted when a called predicate has no
	// clauses; returning true means the hook asserted a definition and
	// the call should be retried. This is how the Educe-baseline engine
	// hooks EDB retrieval (fetch source, parse, assert).
	OnUndefined func(in *Interp, pi term.Indicator) (bool, error)

	// externals are predicates resolved by an engine-provided generator
	// (the baseline's tuple-at-a-time interface to the record manager).
	externals map[term.Indicator]ExternalFn

	// Check, if set, is polled every 256 inferences — the cadence of the
	// WAM's dispatch loop — and at the start of every Solve; a non-nil
	// error ends the resolution with it. The engine installs its
	// per-query cancellation and quota check here.
	Check func() error

	// depth is the current nesting of solve. The solver is written in
	// continuation-passing style, so it deepens with every inference of
	// a derivation, deterministic ones included.
	depth int

	// Stats counters.
	inferences uint64
	asserts    uint64
}

// maxDepth caps the nesting of solve. Go ends the whole process when a
// goroutine outgrows its maximum stack (1 GB), which a plain counting loop
// of three million steps does; at about 400 bytes of stack per level the
// cap keeps a resolution under a quarter of that.
const maxDepth = 600_000

// ErrDepth ends a resolution nested deeper than the solver's stack allows.
var ErrDepth = errors.New("interp: resolution depth limit exceeded")

// New returns an interpreter with the builtin set registered.
func New() *Interp {
	in := &Interp{
		clauses:  map[term.Indicator][]*Clause{},
		builtins: map[term.Indicator]builtinFn{},
	}
	in.registerBuiltins()
	return in
}

// Stats reports (inferences, asserts).
func (in *Interp) Stats() (inferences, asserts uint64) { return in.inferences, in.asserts }

// ResetStats zeroes counters.
func (in *Interp) ResetStats() { in.inferences, in.asserts = 0, 0 }

// Assert adds a clause (Head or Head :- Body) at the end of its predicate.
func (in *Interp) Assert(t term.Term) error { return in.assert(t, false) }

// AssertA adds a clause at the front of its predicate.
func (in *Interp) AssertA(t term.Term) error { return in.assert(t, true) }

func (in *Interp) assert(t term.Term, front bool) error {
	head, body := splitClause(t)
	pi := head.Indicator()
	if pi.Name == "" {
		return fmt.Errorf("interp: cannot assert %s", t)
	}
	in.asserts++
	c := &Clause{Head: head, Body: body}
	if front {
		in.clauses[pi] = append([]*Clause{c}, in.clauses[pi]...)
	} else {
		in.clauses[pi] = append(in.clauses[pi], c)
	}
	return nil
}

// Retract removes the first clause whose head and body unify with t,
// reporting whether one was removed.
func (in *Interp) Retract(t term.Term) bool {
	head, body := splitClause(t)
	pi := head.Indicator()
	cs := in.clauses[pi]
	for i, c := range cs {
		env := NewEnv()
		r := term.Rename(term.Comp(":-", c.Head, c.Body)).(*term.Compound)
		if env.Unify(head, r.Args[0]) && env.Unify(body, r.Args[1]) {
			in.clauses[pi] = append(append([]*Clause{}, cs[:i]...), cs[i+1:]...)
			return true
		}
	}
	return false
}

// RetractAll removes every clause of the predicate.
func (in *Interp) RetractAll(pi term.Indicator) { delete(in.clauses, pi) }

// ClauseCount returns the number of clauses for pi.
func (in *Interp) ClauseCount(pi term.Indicator) int { return len(in.clauses[pi]) }

// Predicates lists asserted predicates.
func (in *Interp) Predicates() []term.Indicator {
	out := make([]term.Indicator, 0, len(in.clauses))
	for pi := range in.clauses {
		out = append(out, pi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

func splitClause(t term.Term) (head, body term.Term) {
	if c, ok := t.(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
		return c.Args[0], c.Args[1]
	}
	return t, term.TrueAtom
}

// result carries control flow through the CPS solver.
type result struct {
	stop bool // the caller asked to stop enumerating
	cut  bool // a cut is propagating toward its barrier
	err  error
}

var proceed = result{}

// cont is a success continuation.
type cont func() result

type builtinFn func(in *Interp, args []term.Term, env *Env, k cont) result

// Solve enumerates solutions of goal. For each solution fn is called with
// the binding environment; returning false stops the enumeration.
func (in *Interp) Solve(goal term.Term, env *Env, fn func(*Env) bool) error {
	if env == nil {
		env = NewEnv()
	}
	if in.Check != nil {
		if err := in.Check(); err != nil {
			return err
		}
	}
	r := in.solve(goal, env, func() result {
		if fn(env) {
			return proceed
		}
		return result{stop: true}
	})
	return r.err
}

// SolveOnce finds the first solution, reporting success.
func (in *Interp) SolveOnce(goal term.Term, env *Env) (bool, error) {
	found := false
	err := in.Solve(goal, env, func(*Env) bool {
		found = true
		return false
	})
	return found, err
}

// solve resolves one goal under the resource envelope: the inference
// count, the amortized Check poll and the depth cap.
func (in *Interp) solve(goal term.Term, env *Env, k cont) result {
	in.inferences++
	if in.inferences&0xff == 0 && in.Check != nil {
		if err := in.Check(); err != nil {
			return result{err: err}
		}
	}
	if in.depth >= maxDepth {
		return result{err: ErrDepth}
	}
	in.depth++
	r := in.step(goal, env, k)
	in.depth--
	return r
}

func (in *Interp) step(goal term.Term, env *Env, k cont) result {
	goal = env.Resolve(goal)
	switch g := goal.(type) {
	case *term.Var:
		return result{err: fmt.Errorf("interp: unbound goal")}
	case term.Int, term.Float:
		return result{err: fmt.Errorf("interp: number is not callable: %s", goal)}
	case term.Atom:
		switch g {
		case "true":
			return k()
		case "fail", "false":
			return proceed
		case "!":
			r := k()
			if r.stop || r.err != nil {
				return r
			}
			r.cut = true
			return r
		}
		return in.call(goal, nil, env, k)
	case *term.Compound:
		switch {
		case g.Functor == "," && len(g.Args) == 2:
			a, b := g.Args[0], g.Args[1]
			return in.solve(a, env, func() result { return in.solve(b, env, k) })
		case g.Functor == ";" && len(g.Args) == 2:
			if ite, ok := env.Resolve(g.Args[0]).(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
				return in.ifThenElse(ite.Args[0], ite.Args[1], g.Args[1], env, k)
			}
			mark := env.Mark()
			r := in.solve(g.Args[0], env, k)
			if r.stop || r.cut || r.err != nil {
				return r
			}
			env.Undo(mark)
			return in.solve(g.Args[1], env, k)
		case g.Functor == "->" && len(g.Args) == 2:
			return in.ifThenElse(g.Args[0], g.Args[1], term.Atom("fail"), env, k)
		case (g.Functor == "\\+" || g.Functor == "not") && len(g.Args) == 1:
			mark := env.Mark()
			found := false
			r := in.solve(g.Args[0], env, func() result {
				found = true
				return result{stop: true}
			})
			if r.err != nil {
				return r
			}
			env.Undo(mark)
			if found {
				return proceed
			}
			return k()
		}
		return in.call(goal, g.Args, env, k)
	}
	return result{err: fmt.Errorf("interp: cannot solve %T", goal)}
}

// ifThenElse implements (C -> T ; E) with commit to the first C solution.
func (in *Interp) ifThenElse(c, t, e term.Term, env *Env, k cont) result {
	mark := env.Mark()
	found := false
	r := in.solve(c, env, func() result {
		found = true
		return result{stop: true}
	})
	if r.err != nil {
		return r
	}
	if found {
		// Condition bindings are in effect.
		return in.solve(t, env, k)
	}
	env.Undo(mark)
	return in.solve(e, env, k)
}

// call resolves a user predicate or builtin.
func (in *Interp) call(goal term.Term, args []term.Term, env *Env, k cont) result {
	pi := goal.Indicator()
	if b, ok := in.builtins[pi]; ok {
		return b(in, args, env, k)
	}
	if ext, ok := in.externals[pi]; ok {
		return in.runExternal(ext, goal, env, k)
	}
	cs, ok := in.clauses[pi]
	if !ok {
		if in.OnUndefined != nil {
			handled, err := in.OnUndefined(in, pi)
			if err != nil {
				return result{err: err}
			}
			if handled {
				cs = in.clauses[pi]
			} else {
				return result{err: fmt.Errorf("interp: unknown procedure %s", pi)}
			}
		} else {
			return result{err: fmt.Errorf("interp: unknown procedure %s", pi)}
		}
	}
	for _, c := range cs {
		mark := env.Mark()
		var rh, rb term.Term
		if c.Body == term.TrueAtom {
			rh = term.Rename(c.Head)
			rb = term.TrueAtom
		} else {
			rc := term.Rename(term.Comp(":-", c.Head, c.Body)).(*term.Compound)
			rh, rb = rc.Args[0], rc.Args[1]
		}
		if env.Unify(goal, rh) {
			r := in.solve(rb, env, k)
			if r.stop || r.err != nil {
				return r
			}
			if r.cut {
				// The cut's barrier is this call: absorb it and stop
				// trying alternatives.
				env.Undo(mark)
				return proceed
			}
		}
		env.Undo(mark)
	}
	return proceed
}

// ExternalFn enumerates the solutions of an externally stored predicate.
// It receives the (partially resolved) goal and must call emit for each
// matching instance; emit returns false to stop enumerating.
type ExternalFn func(goal term.Term, env *Env, emit func() bool) error

// RegisterExternal installs an external resolver for pi.
func (in *Interp) RegisterExternal(pi term.Indicator, fn ExternalFn) {
	if in.externals == nil {
		in.externals = map[term.Indicator]ExternalFn{}
	}
	in.externals[pi] = fn
}

// runExternal adapts an ExternalFn to the CPS solver.
func (in *Interp) runExternal(ext ExternalFn, goal term.Term, env *Env, k cont) result {
	var out result
	err := ext(goal, env, func() bool {
		r := k()
		if r.stop || r.cut || r.err != nil {
			out = r
			return false
		}
		return true
	})
	if err != nil && out.err == nil {
		out.err = err
	}
	if out.cut {
		// The external call is the cut barrier.
		out.cut = false
	}
	return out
}
