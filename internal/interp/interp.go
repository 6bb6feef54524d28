// Package interp is a classical resolution interpreter over source-form
// clauses. It plays the role of the original Educe's rule evaluator in the
// benchmarks (paper §2): rules fetched from the EDB as text are parsed,
// handed to this interpreter for the query, and executed by tree walking —
// the exact cost profile the paper identifies as the motivation for
// storing compiled code instead.
package interp

import (
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// Clause is one clause of a store: its term, Head :- Body or a fact Head,
// and, for the WAM, its code (nil until compiled; the interpreter never
// reads it).
type Clause struct {
	Term term.Term
	Code *compiler.ClauseCode
}

// NewClause reads clause t, refusing a head that is not callable and a
// directive.
func NewClause(t term.Term) (term.Indicator, Clause, error) {
	head, _ := SplitClause(t)
	pi := head.Indicator()
	if pi.Name == "" || pi == (term.Indicator{Name: ":-", Arity: 1}) {
		return pi, Clause{}, fmt.Errorf("interp: cannot assert %s", t)
	}
	return pi, Clause{Term: t}, nil
}

// Store is the clause database an interpreter resolves calls through and
// its assert/1 family, retract/1, clause/2 and abolish/1 edit. A list it
// returns keeps its clauses, as a change replaces or extends the list, so
// a call enumerates the clauses as they were when it began.
type Store interface {
	// Clauses returns pi's clauses; known is false when pi is undefined.
	Clauses(pi term.Indicator) (cs []Clause, known bool)
	// Set makes cs the clauses of pi, which is then defined.
	Set(pi term.Indicator, cs []Clause)
	// Abolish makes pi undefined.
	Abolish(pi term.Indicator)
}

// mapStore is the store of an interpreter New makes, and the library's.
type mapStore map[term.Indicator][]Clause

func (st mapStore) Clauses(pi term.Indicator) ([]Clause, bool) { cs, ok := st[pi]; return cs, ok }
func (st mapStore) Set(pi term.Indicator, cs []Clause)         { st[pi] = cs }
func (st mapStore) Abolish(pi term.Indicator)                  { delete(st, pi) }

// library is Library, read once per process: the clauses a call resolves
// against when the store does not define its predicate.
var library = sync.OnceValue(func() mapStore {
	terms, err := parser.New(Library).ReadAll()
	lib := mapStore{}
	if err == nil {
		err = (&Interp{Store: lib}).Consult(terms)
	}
	if err != nil {
		panic("interp: library: " + err.Error())
	}
	return lib
})

// Interp is an interpreter over a clause store.
type Interp struct {
	Store    Store // the program: New's own, or an embedding engine's
	builtins map[term.Indicator]builtinFn

	// OnUndefined, if set, answers a call of a predicate neither the store
	// nor the library defines, reporting whether it knows the predicate
	// (false: the call raises an existence error). It may enumerate the
	// solutions itself, calling emit once per instance it unified goal
	// with in env and stopping when emit returns false; or return the
	// clauses the call then resolves against. This is how the
	// Educe-baseline engine hooks EDB retrieval: tuple by tuple, or fetch
	// source, parse and hand the clauses to the call.
	OnUndefined func(goal term.Term, env *Env, emit func() bool) ([]Clause, bool, error)

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

// New returns an interpreter with the builtin set registered over an
// empty store of its own.
func New() *Interp {
	in := &Interp{
		Store:    mapStore{},
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

func (in *Interp) assert(t term.Term, front bool) error {
	pi, c, err := NewClause(t)
	if err != nil {
		return err
	}
	in.asserts++
	AddClause(in.Store, pi, c, front)
	return nil
}

// AddClause adds clause c of pi to st, first or last.
func AddClause(st Store, pi term.Indicator, c Clause, front bool) {
	cs, _ := st.Clauses(pi)
	if front {
		cs = append([]Clause{c}, cs...)
	} else {
		cs = append(cs, c)
	}
	st.Set(pi, cs)
}

// Consult adds the clauses terms, in order, in place of the old clauses of
// every predicate they define: a predicate consulted again is redefined. A
// directive :- dynamic(Name/Arity) defines its predicate, with no clauses
// if it has none; any other directive is refused.
func (in *Interp) Consult(terms []term.Term) error {
	fresh := map[term.Indicator][]Clause{}
	for _, t := range terms {
		if d, ok := t.(*term.Compound); ok && d.Functor == ":-" && len(d.Args) == 1 {
			dyn, ok := d.Args[0].(*term.Compound)
			if !ok || dyn.Functor != "dynamic" || len(dyn.Args) != 1 {
				return fmt.Errorf("interp: unsupported directive %s", d.Args[0])
			}
			pi, err := ParseIndicator(dyn.Args[0])
			if err != nil {
				return err
			}
			if _, ok := in.Store.Clauses(pi); !ok {
				in.Store.Set(pi, nil)
			}
			continue
		}
		pi, c, err := NewClause(t)
		if err != nil {
			return err
		}
		fresh[pi] = append(fresh[pi], c)
		in.Store.Set(pi, fresh[pi])
	}
	return nil
}

// ParseIndicator reads a predicate indicator Name/Arity.
func ParseIndicator(t term.Term) (term.Indicator, error) {
	if c, ok := t.(*term.Compound); ok && c.Functor == "/" && len(c.Args) == 2 {
		name, ok1 := c.Args[0].(term.Atom)
		arity, ok2 := c.Args[1].(term.Int)
		if ok1 && ok2 {
			return term.Indicator{Name: string(name), Arity: int(arity)}, nil
		}
	}
	return term.Indicator{}, fmt.Errorf("interp: expected Name/Arity, got %s", t)
}

// Retract removes the first clause whose head and body unify with t,
// reporting whether one was removed.
func (in *Interp) Retract(t term.Term) bool { return in.retract(t, NewEnv()) }

// retract is Retract with t's bindings in env, which keeps those of the
// match.
func (in *Interp) retract(t term.Term, env *Env) bool {
	head, body := SplitClause(env.Resolve(t))
	pi := env.Resolve(head).Indicator()
	cs, _ := in.Store.Clauses(pi)
	for i, c := range cs {
		mark := env.Mark()
		if rh, rb := c.renamed(); env.Unify(head, rh) && env.Unify(body, rb) {
			in.Store.Set(pi, append(cs[:i:i], cs[i+1:]...))
			return true
		}
		env.Undo(mark)
	}
	return false
}

// renamed returns the clause's head and body with fresh variables.
func (c Clause) renamed() (head, body term.Term) {
	return SplitClause(term.Rename(c.Term))
}

// SplitClause returns the head and body of clause t, Head :- Body or a
// fact Head (body true).
func SplitClause(t term.Term) (head, body term.Term) {
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

// done reports whether r ends an enumeration: a stop, a cut or an error.
func (r result) done() bool { return r.stop || r.cut != 0 || r.err != nil }

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
			if r := in.solve(g.Args[0], env, cb, k); r.done() {
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
	cs, ok := in.Store.Clauses(pi)
	if !ok {
		cs, ok = library()[pi]
	}
	if !ok && in.OnUndefined != nil {
		var out result
		var err error
		cs, ok, err = in.OnUndefined(goal, env, func() bool { // each answer an inference
			out = in.solve(term.TrueAtom, env, in.depth, k)
			return !out.done()
		})
		if err != nil && out.err == nil {
			out.err = err
		}
		if out.done() {
			return out
		}
	}
	if !ok {
		return result{err: wam.AsBall(&wam.ErrUnknownProc{Name: pi.Name, Arity: pi.Arity})}
	}
	barrier := in.depth
	for _, c := range cs {
		mark := env.Mark()
		rh, rb := c.renamed()
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
