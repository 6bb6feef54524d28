// Package interp is a classical resolution interpreter over source-form
// clauses. It plays the role of the original Educe's rule evaluator in the
// benchmarks (paper §2): rules fetched from the EDB as text are parsed,
// asserted into this interpreter, executed by tree walking, and erased —
// the exact cost profile the paper identifies as the motivation for
// storing compiled code instead.
package interp

import (
	"fmt"
	"sort"

	"repro/internal/term"
	"repro/internal/wam"
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

	// OnUndefined, if set, answers a call of a predicate with no clauses,
	// reporting whether it knows the predicate (false: the call raises an
	// existence error). It may enumerate the solutions itself, calling
	// emit once per instance it unified goal with in env and stopping
	// when emit returns false; or assert a definition, which the call
	// then resolves against. This is how the Educe-baseline engine hooks
	// EDB retrieval: tuple by tuple, or fetch source, parse, assert.
	OnUndefined func(goal term.Term, env *Env, emit func() bool) (bool, error)

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
// cap keeps a resolution under a quarter of that. A resolution nested
// deeper ends with resource_error(depth).
const maxDepth = 600_000

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

// Consult adds the clauses terms, in order, in place of the old clauses of
// every predicate they define: a predicate consulted again is redefined.
func (in *Interp) Consult(terms []term.Term) error {
	fresh := map[term.Indicator]bool{}
	for _, t := range terms {
		head, _ := splitClause(t)
		if pi := head.Indicator(); !fresh[pi] {
			fresh[pi] = true
			in.RetractAll(pi)
		}
		if err := in.Assert(t); err != nil {
			return err
		}
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

// Dynamic declares the predicate: called with no clauses, it fails.
func (in *Interp) Dynamic(pi term.Indicator) {
	if _, ok := in.clauses[pi]; !ok {
		in.clauses[pi] = nil
	}
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
	cut  int  // nonzero: a cut is propagating toward the barrier with this id
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
	r := in.solve(goal, env, -1, func() result {
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
// count, the amortized Check poll and the depth cap. A cut in goal returns
// to barrier cb: a call's barrier is the depth of the goal it resolves,
// unique on the stack, and the query's is -1.
func (in *Interp) solve(goal term.Term, env *Env, cb int, k cont) result {
	in.inferences++
	if in.inferences&0xff == 0 && in.Check != nil {
		if err := in.Check(); err != nil {
			return result{err: err}
		}
	}
	if in.depth >= maxDepth {
		return result{err: wam.ResourceBall("depth")}
	}
	in.depth++
	r := in.step(goal, env, cb, k)
	in.depth--
	return r
}

func (in *Interp) step(goal term.Term, env *Env, cb int, k cont) result {
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
			r.cut = cb
			return r
		}
		return in.call(goal, nil, env, k)
	case *term.Compound:
		switch {
		case g.Functor == "," && len(g.Args) == 2:
			a, b := g.Args[0], g.Args[1]
			return in.solve(a, env, cb, func() result { return in.solve(b, env, cb, k) })
		case g.Functor == ";" && len(g.Args) == 2:
			if ite, ok := env.Resolve(g.Args[0]).(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
				return in.ifThenElse(ite.Args[0], ite.Args[1], g.Args[1], env, cb, k)
			}
			mark := env.Mark()
			r := in.solve(g.Args[0], env, cb, k)
			if r.stop || r.cut != 0 || r.err != nil {
				return r
			}
			env.Undo(mark)
			return in.solve(g.Args[1], env, cb, k)
		case g.Functor == "->" && len(g.Args) == 2:
			return in.ifThenElse(g.Args[0], g.Args[1], term.Atom("fail"), env, cb, k)
		case (g.Functor == "\\+" || g.Functor == "not") && len(g.Args) == 1:
			mark := env.Mark()
			found := false
			r := in.solve(g.Args[0], env, in.depth, func() result {
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
// A cut in C is local to it; T and E are transparent to cut.
func (in *Interp) ifThenElse(c, t, e term.Term, env *Env, cb int, k cont) result {
	mark := env.Mark()
	found := false
	r := in.solve(c, env, in.depth, func() result {
		found = true
		return result{stop: true}
	})
	if r.err != nil {
		return r
	}
	if found {
		// Condition bindings are in effect.
		return in.solve(t, env, cb, k)
	}
	env.Undo(mark)
	return in.solve(e, env, cb, k)
}

// call resolves a user predicate or builtin.
func (in *Interp) call(goal term.Term, args []term.Term, env *Env, k cont) result {
	pi := goal.Indicator()
	if b, ok := in.builtins[pi]; ok {
		return b(in, args, env, k)
	}
	cs, ok := in.clauses[pi]
	if !ok && in.OnUndefined != nil {
		var out result
		known, err := in.OnUndefined(goal, env, func() bool {
			out = k()
			return !out.stop && out.cut == 0 && out.err == nil
		})
		if err != nil && out.err == nil {
			out.err = err
		}
		if out.stop || out.cut != 0 || out.err != nil {
			return out
		}
		cs, ok = in.clauses[pi], known
	}
	if !ok {
		return result{err: wam.AsBall(&wam.ErrUnknownProc{Name: pi.Name, Arity: pi.Arity})}
	}
	barrier := in.depth
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
			r := in.solve(rb, env, barrier, k)
			if r.stop || r.err != nil || r.cut != 0 && r.cut != barrier {
				return r
			}
			if r.cut == barrier {
				// The cut is this clause's: absorb it and stop trying
				// alternatives.
				env.Undo(mark)
				return proceed
			}
		}
		env.Undo(mark)
	}
	return proceed
}
