package interp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/term"
	"repro/internal/wam"
)

func pi(name string, arity int) term.Indicator { return term.Indicator{Name: name, Arity: arity} }

func (in *Interp) registerBuiltins() {
	reg := func(name string, arity int, fn builtinFn) { in.builtins[pi(name, arity)] = fn }

	reg("=", 2, func(in *Interp, a []term.Term, env *Env, k cont) result { return unifyThen(env, a[0], a[1], k) })
	reg("\\=", 2, func(in *Interp, a []term.Term, env *Env, k cont) result {
		mark := env.Mark()
		ok := env.Unify(a[0], a[1])
		env.Undo(mark)
		if ok {
			return proceed
		}
		return k()
	})

	det := func(f func(in *Interp, a []term.Term, env *Env) (bool, error)) builtinFn {
		return func(in *Interp, a []term.Term, env *Env, k cont) result {
			mark := env.Mark()
			ok, err := f(in, a, env)
			if err != nil {
				return result{err: err}
			}
			if ok {
				if r := k(); r.done() {
					return r
				}
			}
			env.Undo(mark)
			return proceed
		}
	}

	typeTest := func(f func(term.Term) bool) builtinFn {
		return det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
			return f(env.Resolve(a[0])), nil
		})
	}
	isVar := func(t term.Term) bool { _, ok := t.(*term.Var); return ok }
	reg("var", 1, typeTest(isVar))
	reg("nonvar", 1, typeTest(func(t term.Term) bool { return !isVar(t) }))
	reg("atom", 1, typeTest(func(t term.Term) bool { _, ok := t.(term.Atom); return ok }))
	reg("number", 1, typeTest(func(t term.Term) bool {
		switch t.(type) {
		case term.Int, term.Float:
			return true
		}
		return false
	}))
	reg("integer", 1, typeTest(func(t term.Term) bool { _, ok := t.(term.Int); return ok }))
	reg("float", 1, typeTest(func(t term.Term) bool { _, ok := t.(term.Float); return ok }))
	reg("atomic", 1, typeTest(func(t term.Term) bool {
		switch t.(type) {
		case term.Atom, term.Int, term.Float:
			return true
		}
		return false
	}))
	reg("compound", 1, typeTest(func(t term.Term) bool { _, ok := t.(*term.Compound); return ok }))
	reg("callable", 1, typeTest(func(t term.Term) bool {
		switch t.(type) {
		case term.Atom, *term.Compound:
			return true
		}
		return false
	}))
	reg("ground", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return term.IsGround(env.ResolveDeep(a[0])), nil
	}))
	reg("is_list", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		_, ok := term.UnpackList(env.ResolveDeep(a[0]))
		return ok, nil
	}))

	cmp := func(f func(int) bool) builtinFn {
		return det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
			return f(term.Compare(env.ResolveDeep(a[0]), env.ResolveDeep(a[1]))), nil
		})
	}
	reg("==", 2, cmp(func(c int) bool { return c == 0 }))
	reg("\\==", 2, cmp(func(c int) bool { return c != 0 }))
	reg("@<", 2, cmp(func(c int) bool { return c < 0 }))
	reg("@>", 2, cmp(func(c int) bool { return c > 0 }))
	reg("@=<", 2, cmp(func(c int) bool { return c <= 0 }))
	reg("@>=", 2, cmp(func(c int) bool { return c >= 0 }))
	reg("compare", 3, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		c := term.Compare(env.ResolveDeep(a[1]), env.ResolveDeep(a[2]))
		name := "="
		if c < 0 {
			name = "<"
		} else if c > 0 {
			name = ">"
		}
		return env.Unify(a[0], term.Atom(name)), nil
	}))

	reg("is", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		v, err := evalArith(env, a[1])
		if err != nil {
			return false, err
		}
		return env.Unify(a[0], v.Term()), nil
	}))
	acmp := func(f func(int) bool) builtinFn {
		return det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
			x, err := evalArith(env, a[0])
			if err != nil {
				return false, err
			}
			y, err := evalArith(env, a[1])
			if err != nil {
				return false, err
			}
			return f(term.CompareNumbers(x, y)), nil
		})
	}
	reg("=:=", 2, acmp(func(c int) bool { return c == 0 }))
	reg("=\\=", 2, acmp(func(c int) bool { return c != 0 }))
	reg("<", 2, acmp(func(c int) bool { return c < 0 }))
	reg(">", 2, acmp(func(c int) bool { return c > 0 }))
	reg("=<", 2, acmp(func(c int) bool { return c <= 0 }))
	reg(">=", 2, acmp(func(c int) bool { return c >= 0 }))

	reg("functor", 3, det(biIFunctor))
	reg("arg", 3, det(biIArg))
	reg("=..", 2, det(biIUniv))
	reg("copy_term", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return env.Unify(a[1], term.Rename(env.ResolveDeep(a[0]))), nil
	}))
	reg("length", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		if items, ok := term.UnpackList(env.ResolveDeep(a[0])); ok {
			return env.Unify(a[1], term.Int(len(items))), nil
		}
		if n, ok := env.Resolve(a[1]).(term.Int); ok && n >= 0 {
			items := make([]term.Term, n)
			for i := range items {
				items[i] = &term.Var{Name: fmt.Sprintf("_L%d", i)}
			}
			return env.Unify(a[0], term.List(items...)), nil
		}
		return false, fmt.Errorf("interp: length/2: insufficiently instantiated")
	}))
	reg("msort", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		items, ok := term.UnpackList(env.ResolveDeep(a[0]))
		if !ok {
			return false, fmt.Errorf("interp: msort/2: not a proper list")
		}
		term.SortTerms(items)
		return env.Unify(a[1], term.List(items...)), nil
	}))
	reg("sort", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		items, ok := term.UnpackList(env.ResolveDeep(a[0]))
		if !ok {
			return false, fmt.Errorf("interp: sort/2: not a proper list")
		}
		term.SortTerms(items)
		var dedup []term.Term
		for i, it := range items {
			if i == 0 || term.Compare(items[i-1], it) != 0 {
				dedup = append(dedup, it)
			}
		}
		return env.Unify(a[1], term.List(dedup...)), nil
	}))
	reg("atom_codes", 2, det(textList("atom_codes/2", "atom", "integer")))
	reg("atom_chars", 2, det(textList("atom_chars/2", "atom", "character")))
	reg("number_codes", 2, det(textList("number_codes/2", "number", "integer")))
	reg("atom_length", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		s, ok := textOf(env.Resolve(a[0]))
		if !ok {
			return false, argError(env, a[0], "atom", "atom_length/2")
		}
		return env.Unify(a[1], term.Int(utf8.RuneCountInString(s))), nil
	}))
	reg("char_code", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		if at, ok := env.Resolve(a[0]).(term.Atom); ok {
			r := []rune(string(at))
			if len(r) != 1 {
				return false, argError(env, at, "character", "char_code/2")
			}
			return env.Unify(a[1], term.Int(r[0])), nil
		}
		n, ok := env.Resolve(a[1]).(term.Int)
		if !ok {
			return false, argError(env, a[1], "integer", "char_code/2")
		}
		return env.Unify(a[0], term.Atom(string(rune(n)))), nil
	}))
	reg("succ", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		x, y := env.Resolve(a[0]), env.Resolve(a[1])
		if n, ok := x.(term.Int); ok {
			if n < 0 {
				return false, fmt.Errorf("interp: arithmetic: succ/2 needs a natural number")
			}
			return env.Unify(y, n+1), nil
		}
		if n, ok := y.(term.Int); ok {
			return n > 0 && env.Unify(x, n-1), nil
		}
		if _, ok := x.(*term.Var); ok {
			x = y
		}
		return false, argError(env, x, "integer", "succ/2")
	}))
	reg("keysort", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		items, ok := term.UnpackList(env.ResolveDeep(a[0]))
		if !ok {
			return false, argError(env, a[0], "list", "keysort/2")
		}
		for _, it := range items {
			if c, ok := it.(*term.Compound); !ok || c.Functor != "-" || len(c.Args) != 2 {
				return false, argError(env, it, "pair", "keysort/2")
			}
		}
		key := func(i int) term.Term { return items[i].(*term.Compound).Args[0] }
		sort.SliceStable(items, func(i, j int) bool { return term.Compare(key(i), key(j)) < 0 })
		return env.Unify(a[1], term.List(items...)), nil
	}))
	reg("unify_with_occurs_check", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return env.unifyOccurs(a[0], a[1]), nil
	}))
	reg("atom_number", 2, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		if at, ok := env.Resolve(a[0]).(term.Atom); ok {
			if v, err := strconv.ParseInt(string(at), 10, 64); err == nil {
				return env.Unify(a[1], term.Int(v)), nil
			}
			if f, err := strconv.ParseFloat(string(at), 64); err == nil {
				return env.Unify(a[1], term.Float(f)), nil
			}
			return false, nil
		}
		n := env.Resolve(a[1])
		switch n.(type) {
		case term.Int, term.Float:
			return env.Unify(a[0], term.Atom(n.String())), nil
		}
		return false, fmt.Errorf("interp: atom_number/2: insufficiently instantiated")
	}))

	// call/1..call/4.
	for n := 1; n <= 4; n++ {
		n := n
		in.builtins[pi("call", n)] = func(in *Interp, a []term.Term, env *Env, k cont) result {
			goal := env.Resolve(a[0])
			extra := a[1:]
			if len(extra) > 0 {
				switch g := goal.(type) {
				case term.Atom:
					goal = term.New(string(g), extra...)
				case *term.Compound:
					args := append(append([]term.Term{}, g.Args...), extra...)
					goal = term.Comp(g.Functor, args...)
				default:
					return result{err: fmt.Errorf("interp: call/%d: not callable", n)}
				}
			}
			r := in.solve(goal, env, in.depth, k)
			if r.cut == in.depth {
				r.cut = 0 // cut is local inside call/N
			}
			return r
		}
	}

	// catch(Goal, Catcher, Recovery) calls Goal. A ball raised while Goal
	// runs, not once it has exited, undoes Goal's bindings and, if it
	// unifies with Catcher, calls Recovery in Goal's place.
	reg("catch", 3, func(in *Interp, a []term.Term, env *Env, k cont) result {
		call, mark, exited := in.builtins[pi("call", 1)], env.Mark(), false
		r := call(in, a[:1], env, func() result {
			r := k()
			exited = r.err != nil
			return r
		})
		ball, ok := r.err.(*wam.ErrBall)
		if !ok || exited {
			return r
		}
		env.Undo(mark)
		if !env.Unify(a[1], ball.Term) {
			return r
		}
		return call(in, a[2:], env, k)
	})
	reg("throw", 1, func(in *Interp, a []term.Term, env *Env, k cont) result {
		if _, ok := env.Resolve(a[0]).(*term.Var); ok {
			return result{err: fmt.Errorf("interp: throw/1: unbound ball")}
		}
		return result{err: &wam.ErrBall{Term: term.Rename(env.ResolveDeep(a[0]))}}
	})

	reg("between", 3, func(in *Interp, a []term.Term, env *Env, k cont) result {
		lo, ok1 := env.Resolve(a[0]).(term.Int)
		hi, ok2 := env.Resolve(a[1]).(term.Int)
		if !ok1 || !ok2 {
			return result{err: fmt.Errorf("interp: between/3: bounds must be integers")}
		}
		if x, ok := env.Resolve(a[2]).(term.Int); ok {
			if x >= lo && x <= hi {
				return k()
			}
			return proceed
		}
		for v := lo; v <= hi; v++ {
			if r := unifyThen(env, a[2], v, k); r.done() {
				return r
			}
		}
		return proceed
	})

	reg("findall", 3, func(in *Interp, a []term.Term, env *Env, k cont) result {
		var items []term.Term
		mark := env.Mark()
		r := in.solve(a[1], env, in.depth, func() result {
			items = append(items, term.Rename(env.ResolveDeep(a[0])))
			return proceed
		})
		if r.err != nil {
			return r
		}
		env.Undo(mark)
		return unifyThen(env, a[2], term.List(items...), k)
	})

	for name, front := range map[string]bool{"assert": false, "assertz": false, "asserta": true} {
		reg(name, 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
			return true, in.assert(env.ResolveDeep(a[0]), front)
		}))
	}
	reg("retract", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return in.retract(a[0], env), nil
	}))
	reg("abolish", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		pi, err := ParseIndicator(env.ResolveDeep(a[0]))
		if err == nil {
			in.Store.Abolish(pi)
		}
		return err == nil, err
	}))
	// clause(Head, Body) enumerates the clauses of Head's predicate.
	reg("clause", 2, func(in *Interp, a []term.Term, env *Env, k cont) result {
		pi := env.Resolve(a[0]).Indicator()
		if pi.Name == "" {
			return result{err: fmt.Errorf("interp: clause/2: head must be callable")}
		}
		cs, _ := in.Store.Clauses(pi)
		for _, c := range cs {
			rh, rb := c.renamed()
			if r := unifyThen(env, term.Comp(":-", a[0], a[1]), term.Comp(":-", rh, rb), k); r.done() {
				return r
			}
		}
		return proceed
	})

	reg("write", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return true, nil // output suppressed in benchmark interpreter
	}))
	reg("nl", 0, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		return true, nil
	}))
	reg("tab", 1, det(func(in *Interp, a []term.Term, env *Env) (bool, error) {
		if _, ok := env.Resolve(a[0]).(*term.Var); ok {
			return false, argError(env, a[0], "evaluable", "tab/1")
		}
		_, err := evalArith(env, a[0])
		return err == nil, err
	}))
}

// argError is builtin pi's error for argument t, which is not of type typ,
// as the WAM raises it.
func argError(env *Env, t term.Term, typ, pi string) error {
	return wam.ArgError(env.ResolveDeep(t), typ, pi)
}

// textOf returns the text of atomic t.
func textOf(t term.Term) (string, bool) {
	switch x := t.(type) {
	case term.Atom:
		return string(x), true
	case term.Int, term.Float:
		return x.String(), true
	}
	return "", false
}

// textList is the builtin pi of atom_codes/2, atom_chars/2 and
// number_codes/2, as the WAM's: the text of the first argument, of type of
// (atom or number; an atom's text may be a number's), as the list of its
// characters (elements of type typ, character or integer code), or the
// text the list spells.
func textList(pi, of, typ string) func(in *Interp, a []term.Term, env *Env) (bool, error) {
	return func(in *Interp, a []term.Term, env *Env) (bool, error) {
		t := env.Resolve(a[0])
		_, atom := t.(term.Atom)
		if s, ok := textOf(t); ok && (of == "atom" || !atom) {
			var items []term.Term
			for _, r := range s {
				if typ == "character" {
					items = append(items, term.Atom(string(r)))
				} else {
					items = append(items, term.Int(r))
				}
			}
			return env.Unify(a[1], term.List(items...)), nil
		}
		items, ok := term.UnpackList(env.ResolveDeep(a[1]))
		if !ok {
			return false, argError(env, t, of, pi)
		}
		var b strings.Builder
		for _, it := range items {
			switch x := it.(type) {
			case term.Atom:
				if typ == "character" {
					b.WriteString(string(x))
					continue
				}
			case term.Int:
				if typ == "integer" {
					b.WriteRune(rune(x))
					continue
				}
			}
			return false, argError(env, it, typ, pi)
		}
		if of == "atom" {
			return env.Unify(a[0], term.Atom(b.String())), nil
		}
		text := strings.TrimSpace(b.String())
		if v, err := strconv.ParseInt(text, 10, 64); err == nil {
			return env.Unify(a[0], term.Int(v)), nil
		}
		if f, err := strconv.ParseFloat(text, 64); err == nil {
			return env.Unify(a[0], term.Float(f)), nil
		}
		return false, fmt.Errorf("interp: %q is not a number", text)
	}
}

// unifyThen calls k once a and b unify, undoing their bindings after.
func unifyThen(env *Env, a, b term.Term, k cont) result {
	mark := env.Mark()
	if env.Unify(a, b) {
		if r := k(); r.done() {
			return r
		}
	}
	env.Undo(mark)
	return proceed
}

func biIFunctor(in *Interp, a []term.Term, env *Env) (bool, error) {
	switch x := env.Resolve(a[0]).(type) {
	case *term.Var:
		name := env.Resolve(a[1])
		n, ok := env.Resolve(a[2]).(term.Int)
		if !ok {
			return false, fmt.Errorf("interp: functor/3: arity must be integer")
		}
		if n == 0 {
			return env.Unify(x, name), nil
		}
		at, ok := name.(term.Atom)
		if !ok {
			return false, fmt.Errorf("interp: functor/3: name must be atom")
		}
		args := make([]term.Term, n)
		for i := range args {
			args[i] = &term.Var{Name: fmt.Sprintf("_F%d", i)}
		}
		return env.Unify(x, term.Comp(string(at), args...)), nil
	case *term.Compound:
		return env.Unify(a[1], term.Atom(x.Functor)) && env.Unify(a[2], term.Int(len(x.Args))), nil
	default:
		return env.Unify(a[1], x) && env.Unify(a[2], term.Int(0)), nil
	}
}

func biIArg(in *Interp, a []term.Term, env *Env) (bool, error) {
	n, ok := env.Resolve(a[0]).(term.Int)
	if !ok {
		return false, fmt.Errorf("interp: arg/3: first argument must be integer")
	}
	c, ok := env.Resolve(a[1]).(*term.Compound)
	if !ok {
		return false, fmt.Errorf("interp: arg/3: second argument must be compound")
	}
	if n < 1 || int(n) > len(c.Args) {
		return false, nil
	}
	return env.Unify(a[2], c.Args[n-1]), nil
}

func biIUniv(in *Interp, a []term.Term, env *Env) (bool, error) {
	switch x := env.Resolve(a[0]).(type) {
	case *term.Var:
		items, ok := term.UnpackList(env.ResolveDeep(a[1]))
		if !ok || len(items) == 0 {
			return false, fmt.Errorf("interp: =../2: right side must be non-empty list")
		}
		if len(items) == 1 {
			return env.Unify(x, items[0]), nil
		}
		at, ok := items[0].(term.Atom)
		if !ok {
			return false, fmt.Errorf("interp: =../2: functor must be atom")
		}
		return env.Unify(x, term.Comp(string(at), items[1:]...)), nil
	case *term.Compound:
		items := append([]term.Term{term.Atom(x.Functor)}, x.Args...)
		return env.Unify(a[1], term.List(items...)), nil
	default:
		return env.Unify(a[1], term.List(x)), nil
	}
}

// evalArith evaluates an arithmetic expression term; what each constant
// and function computes is package term's table, shared with the WAM.
func evalArith(env *Env, t term.Term) (term.Number, error) {
	t = env.Resolve(t)
	if n, ok := term.NumberOf(t); ok {
		return n, nil
	}
	switch x := t.(type) {
	case *term.Var:
		return term.Number{}, fmt.Errorf("interp: unbound variable in arithmetic")
	case term.Atom:
		return arithResult(term.ArithConstant(string(x)))
	case *term.Compound:
		if len(x.Args) == 1 {
			a, err := evalArith(env, x.Args[0])
			if err != nil {
				return term.Number{}, err
			}
			return arithResult(term.EvalUnary(x.Functor, a))
		}
		if len(x.Args) == 2 {
			if x.Functor == term.ConsName && env.Resolve(x.Args[1]) == term.NilAtom {
				return evalArith(env, x.Args[0]) // [X] evaluates to X
			}
			a, err := evalArith(env, x.Args[0])
			if err != nil {
				return term.Number{}, err
			}
			b, err := evalArith(env, x.Args[1])
			if err != nil {
				return term.Number{}, err
			}
			return arithResult(term.EvalBinary(x.Functor, a, b))
		}
	}
	return term.Number{}, fmt.Errorf("interp: bad arithmetic expression %s", t)
}

// arithResult prefixes an error of the shared table with the package.
func arithResult(n term.Number, err error) (term.Number, error) {
	if err != nil {
		return term.Number{}, fmt.Errorf("interp: %w", err)
	}
	return n, nil
}
