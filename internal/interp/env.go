package interp

import "repro/internal/term"

// Env is a binding environment with a trail for backtracking.
type Env struct {
	bind  map[*term.Var]term.Term
	trail []*term.Var
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{bind: map[*term.Var]term.Term{}} }

// Resolve dereferences the top of t through the bindings.
func (e *Env) Resolve(t term.Term) term.Term {
	for {
		v, ok := t.(*term.Var)
		if !ok {
			return t
		}
		b, ok := e.bind[v]
		if !ok {
			return t
		}
		t = b
	}
}

// Mark returns a trail position for later Undo.
func (e *Env) Mark() int { return len(e.trail) }

// Undo removes bindings made since mark.
func (e *Env) Undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		delete(e.bind, e.trail[i])
	}
	e.trail = e.trail[:mark]
}

func (e *Env) bindVar(v *term.Var, t term.Term) {
	e.bind[v] = t
	e.trail = append(e.trail, v)
}

// Unify unifies a and b under the environment, trailing bindings.
func (e *Env) Unify(a, b term.Term) bool {
	a, b = e.Resolve(a), e.Resolve(b)
	if a == b {
		return true
	}
	if v, ok := a.(*term.Var); ok {
		e.bindVar(v, b)
		return true
	}
	if v, ok := b.(*term.Var); ok {
		e.bindVar(v, a)
		return true
	}
	switch x := a.(type) {
	case term.Atom:
		y, ok := b.(term.Atom)
		return ok && x == y
	case term.Int:
		y, ok := b.(term.Int)
		return ok && x == y
	case term.Float:
		y, ok := b.(term.Float)
		return ok && x == y
	case *term.Compound:
		y, ok := b.(*term.Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !e.Unify(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// unifyOccurs is Unify with the occurs check: no variable is bound to a
// term that contains it.
func (e *Env) unifyOccurs(a, b term.Term) bool {
	a, b = e.Resolve(a), e.Resolve(b)
	if _, ok := b.(*term.Var); ok {
		a, b = b, a
	}
	if v, ok := a.(*term.Var); ok && v != b {
		if e.occurs(v, b) {
			return false
		}
		e.bindVar(v, b)
		return true
	}
	x, ok1 := a.(*term.Compound)
	y, ok2 := b.(*term.Compound)
	if !ok1 || !ok2 {
		return e.Unify(a, b)
	}
	if x.Functor != y.Functor || len(x.Args) != len(y.Args) {
		return false
	}
	for i := range x.Args {
		if !e.unifyOccurs(x.Args[i], y.Args[i]) {
			return false
		}
	}
	return true
}

// occurs reports whether variable v occurs in t.
func (e *Env) occurs(v *term.Var, t term.Term) bool {
	switch x := e.Resolve(t).(type) {
	case *term.Var:
		return x == v
	case *term.Compound:
		for _, a := range x.Args {
			if e.occurs(v, a) {
				return true
			}
		}
	}
	return false
}

// ResolveDeep instantiates t fully under the environment (unbound
// variables remain).
func (e *Env) ResolveDeep(t term.Term) term.Term {
	t = e.Resolve(t)
	if c, ok := t.(*term.Compound); ok {
		args := make([]term.Term, len(c.Args))
		changed := false
		for i, a := range c.Args {
			args[i] = e.ResolveDeep(a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return c
		}
		return &term.Compound{Functor: c.Functor, Args: args}
	}
	return t
}
