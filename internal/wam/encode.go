package wam

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/term"
)

// EncodeTerm writes the symbolic term t onto the heap and returns its cell.
// env maps source variables to their heap cells so that sharing within and
// across terms encoded with the same env is preserved.
func (m *Machine) EncodeTerm(t term.Term, env map[*term.Var]Cell) Cell {
	switch x := t.(type) {
	case term.Atom:
		return MakeCon(m.Dict.Intern(string(x), 0))
	case term.Int:
		return MakeInt(int64(x))
	case term.Float:
		return m.PushFloat(float64(x))
	case *term.Var:
		if c, ok := env[x]; ok {
			return c
		}
		c := MakeRef(m.NewVar())
		env[x] = c
		return c
	case *term.Compound:
		if x.Functor == term.ConsName && len(x.Args) == 2 {
			head := m.EncodeTerm(x.Args[0], env)
			tail := m.EncodeTerm(x.Args[1], env)
			a := m.PushHeap(head)
			m.PushHeap(tail)
			return MakeLis(a)
		}
		args := make([]Cell, len(x.Args))
		for i, at := range x.Args {
			args[i] = m.EncodeTerm(at, env)
		}
		fn := m.Dict.Intern(x.Functor, len(x.Args))
		a := m.PushHeap(MakeFun(fn, len(x.Args)))
		for _, c := range args {
			m.PushHeap(c)
		}
		return MakeStr(a)
	}
	panic(fmt.Sprintf("wam: cannot encode %T", t))
}

// DecodeTermVars is DecodeTerm, additionally returning the heap address of
// every variable in the result. catch/3 uses the map to re-establish
// variable identity when a ball is delivered.
func (m *Machine) DecodeTermVars(c Cell) (term.Term, map[*term.Var]int) {
	d := &decoder{m: m, vars: map[int]*term.Var{}, visiting: map[int]bool{}}
	t := d.decode(c)
	addrs := make(map[*term.Var]int, len(d.vars))
	for a, v := range d.vars {
		addrs[v] = a
	}
	return t, addrs
}

// DecodeTerm converts a heap cell back into a symbolic term. Unbound
// variables become fresh *term.Var values named after their heap address;
// repeated occurrences of the same variable share one *term.Var. Cyclic
// structures (possible because unification omits the occurs check) are cut
// at the back-edge with a fresh variable.
func (m *Machine) DecodeTerm(c Cell) term.Term {
	d := &decoder{m: m, vars: map[int]*term.Var{}, visiting: map[int]bool{}}
	return d.decode(c)
}

// DecodeTerms decodes each cell of cs as DecodeTerm does, through one
// decoder: a variable two of the cells share is one *term.Var in both.
func (m *Machine) DecodeTerms(cs []Cell) []term.Term {
	d := &decoder{m: m, vars: map[int]*term.Var{}, visiting: map[int]bool{}}
	ts := make([]term.Term, len(cs))
	for i, c := range cs {
		ts[i] = d.decode(c)
	}
	return ts
}

type decoder struct {
	m        *Machine
	vars     map[int]*term.Var
	visiting map[int]bool
}

func (d *decoder) decode(c Cell) term.Term {
	c = d.m.Deref(c)
	switch c.Tag() {
	case TagRef:
		a := c.Val()
		if v, ok := d.vars[a]; ok {
			return v
		}
		v := &term.Var{Name: fmt.Sprintf("_G%d", a)}
		d.vars[a] = v
		return v
	case TagCon:
		return term.Atom(d.m.Dict.Name(dict.ID(c.Val())))
	case TagInt:
		return term.Int(c.IntVal())
	case TagFlt:
		return term.Float(d.m.floats[c.Val()])
	case TagSmall:
		// Bookkeeping cells can only reach decode through engine bugs
		// or cut barriers passed as data; render them opaquely.
		return term.Comp("$level", term.Int(c.SmallVal()))
	case TagLis:
		a := c.Val()
		if d.visiting[a] {
			return &term.Var{Name: fmt.Sprintf("_Cycle%d", a)}
		}
		d.visiting[a] = true
		head := d.decode(d.m.heap[a])
		tail := d.decode(d.m.heap[a+1])
		delete(d.visiting, a)
		return term.Cons(head, tail)
	case TagStr:
		a := c.Val()
		if d.visiting[a] {
			return &term.Var{Name: fmt.Sprintf("_Cycle%d", a)}
		}
		d.visiting[a] = true
		f := d.m.heap[a]
		n := f.FunArity()
		args := make([]term.Term, n)
		for i := 0; i < n; i++ {
			args[i] = d.decode(d.m.heap[a+1+i])
		}
		delete(d.visiting, a)
		return term.Comp(d.m.Dict.Name(f.FunID()), args...)
	}
	panic(fmt.Sprintf("wam: cannot decode cell tag %v", c.Tag()))
}

// AtomID returns the dictionary ID of a constant (atom) cell.
func (c Cell) AtomID() dict.ID { return dict.ID(c.Val()) }
