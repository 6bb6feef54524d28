package wam

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/term"
)

// collector accumulates findall/3 results as symbolic terms so they
// survive backtracking over the generator.
type collector struct {
	items []term.Term
}

// registerCoreBuiltins installs the compiler-independent builtin
// predicates. Engine-level builtins (assert/retract, consult) are added by
// the educe package because they need the clause compiler.
func registerCoreBuiltins(m *Machine) {
	reg := func(name string, arity int, fn BuiltinFn) {
		m.RegisterBuiltin(Builtin{Name: name, Arity: arity, Fn: fn})
	}

	reg("true", 0, func(m *Machine, _ []Cell) (bool, error) { return true, nil })
	reg("fail", 0, func(m *Machine, _ []Cell) (bool, error) { return false, nil })
	reg("false", 0, func(m *Machine, _ []Cell) (bool, error) { return false, nil })
	reg("halt", 0, func(m *Machine, _ []Cell) (bool, error) { return false, ErrHalted })
	reg("!", 0, func(m *Machine, _ []Cell) (bool, error) {
		m.cutTo(m.b0)
		return true, nil
	})

	// --- unification -----------------------------------------------
	reg("=", 2, func(m *Machine, a []Cell) (bool, error) { return m.Unify(a[0], a[1]), nil })
	reg("\\=", 2, func(m *Machine, a []Cell) (bool, error) {
		x, y := a[0], a[1]
		ok := m.tentatively(func() bool { return m.Unify(x, y) })
		return !ok, nil
	})
	reg("unify_with_occurs_check", 2, func(m *Machine, a []Cell) (bool, error) {
		return m.unifyOccurs(a[0], a[1]), nil
	})

	// --- type tests -------------------------------------------------
	typeTest := func(f func(Cell) bool) BuiltinFn {
		return func(m *Machine, a []Cell) (bool, error) { return f(m.Deref(a[0])), nil }
	}
	reg("var", 1, typeTest(func(c Cell) bool { return c.Tag() == TagRef }))
	reg("nonvar", 1, typeTest(func(c Cell) bool { return c.Tag() != TagRef }))
	reg("atom", 1, typeTest(func(c Cell) bool { return c.Tag() == TagCon }))
	reg("integer", 1, typeTest(func(c Cell) bool { return c.Tag() == TagInt }))
	reg("float", 1, typeTest(func(c Cell) bool { return c.Tag() == TagFlt }))
	reg("number", 1, typeTest(func(c Cell) bool { return c.Tag() == TagInt || c.Tag() == TagFlt }))
	reg("atomic", 1, typeTest(func(c Cell) bool {
		switch c.Tag() {
		case TagCon, TagInt, TagFlt:
			return true
		}
		return false
	}))
	reg("compound", 1, typeTest(func(c Cell) bool { return c.Tag() == TagStr || c.Tag() == TagLis }))
	reg("callable", 1, typeTest(func(c Cell) bool {
		switch c.Tag() {
		case TagCon, TagStr, TagLis:
			return true
		}
		return false
	}))
	reg("is_list", 1, func(m *Machine, a []Cell) (bool, error) {
		c := m.Deref(a[0])
		for {
			switch c.Tag() {
			case TagCon:
				return c == MakeCon(m.nilID()), nil
			case TagLis:
				c = m.Deref(m.heap[c.Val()+1])
			default:
				return false, nil
			}
		}
	})
	reg("ground", 1, func(m *Machine, a []Cell) (bool, error) { return m.groundCell(a[0]), nil })

	// --- standard order ----------------------------------------------
	reg("==", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) == 0, nil })
	reg("\\==", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) != 0, nil })
	reg("@<", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) < 0, nil })
	reg("@>", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) > 0, nil })
	reg("@=<", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) <= 0, nil })
	reg("@>=", 2, func(m *Machine, a []Cell) (bool, error) { return m.CompareCells(a[0], a[1]) >= 0, nil })
	reg("compare", 3, func(m *Machine, a []Cell) (bool, error) {
		c := m.CompareCells(a[1], a[2])
		name := "="
		if c < 0 {
			name = "<"
		} else if c > 0 {
			name = ">"
		}
		return m.Unify(a[0], MakeCon(m.Dict.Intern(name, 0))), nil
	})

	// --- arithmetic ---------------------------------------------------
	reg("is", 2, func(m *Machine, a []Cell) (bool, error) {
		n, err := m.Eval(a[1])
		if err != nil {
			return false, err
		}
		return m.Unify(a[0], m.numberCell(n)), nil
	})
	arithCmp := func(f func(int) bool) BuiltinFn {
		return func(m *Machine, a []Cell) (bool, error) {
			x, err := m.Eval(a[0])
			if err != nil {
				return false, err
			}
			y, err := m.Eval(a[1])
			if err != nil {
				return false, err
			}
			return f(term.CompareNumbers(x, y)), nil
		}
	}
	reg("=:=", 2, arithCmp(func(c int) bool { return c == 0 }))
	reg("=\\=", 2, arithCmp(func(c int) bool { return c != 0 }))
	reg("<", 2, arithCmp(func(c int) bool { return c < 0 }))
	reg(">", 2, arithCmp(func(c int) bool { return c > 0 }))
	reg("=<", 2, arithCmp(func(c int) bool { return c <= 0 }))
	reg(">=", 2, arithCmp(func(c int) bool { return c >= 0 }))
	reg("succ", 2, func(m *Machine, a []Cell) (bool, error) {
		x, y := m.Deref(a[0]), m.Deref(a[1])
		switch {
		case x.Tag() == TagInt:
			if x.IntVal() < 0 {
				return false, arithErrf("succ/2 needs a natural number")
			}
			return m.Unify(y, MakeInt(x.IntVal()+1)), nil
		case y.Tag() == TagInt:
			if y.IntVal() <= 0 {
				return false, nil
			}
			return m.Unify(x, MakeInt(y.IntVal()-1)), nil
		}
		if x.Tag() == TagRef {
			x = y
		}
		return false, m.argError(x, "integer", "succ/2")
	})
	reg("plus", 3, func(m *Machine, a []Cell) (bool, error) {
		x, y, z := m.Deref(a[0]), m.Deref(a[1]), m.Deref(a[2])
		switch {
		case x.Tag() == TagInt && y.Tag() == TagInt:
			return m.Unify(z, MakeInt(x.IntVal()+y.IntVal())), nil
		case x.Tag() == TagInt && z.Tag() == TagInt:
			return m.Unify(y, MakeInt(z.IntVal()-x.IntVal())), nil
		case y.Tag() == TagInt && z.Tag() == TagInt:
			return m.Unify(x, MakeInt(z.IntVal()-y.IntVal())), nil
		}
		return false, arithErrf("plus/3: insufficiently instantiated")
	})
	reg("between", 3, func(m *Machine, a []Cell) (bool, error) {
		lo, hi := m.Deref(a[0]), m.Deref(a[1])
		if lo.Tag() != TagInt || hi.Tag() != TagInt {
			return false, arithErrf("between/3: bounds must be integers")
		}
		x := m.Deref(a[2])
		if x.Tag() == TagInt {
			v := x.IntVal()
			return v >= lo.IntVal() && v <= hi.IntVal(), nil
		}
		if x.Tag() != TagRef {
			return false, nil
		}
		cur := lo.IntVal()
		end := hi.IntVal()
		fn := func(m *Machine) (bool, error) {
			if cur > end {
				return false, nil
			}
			v := cur
			cur++
			return m.Unify(m.Reg(2), MakeInt(v)), nil
		}
		m.PushRedo(fn)
		return fn(m)
	})

	// --- term construction --------------------------------------------
	reg("functor", 3, biFunctor)
	reg("arg", 3, biArg)
	reg("=..", 2, biUniv)
	reg("copy_term", 2, func(m *Machine, a []Cell) (bool, error) {
		c := m.copyCell(a[0], map[int]Cell{})
		return m.Unify(a[1], c), nil
	})

	// --- atoms and numbers ---------------------------------------------
	reg("atom_codes", 2, textList("atom_codes/2", "atom", "integer"))
	reg("atom_chars", 2, textList("atom_chars/2", "atom", "character"))
	reg("char_code", 2, biCharCode)
	reg("atom_length", 2, biAtomLength)
	reg("atom_concat", 3, biAtomConcat)
	reg("number_codes", 2, textList("number_codes/2", "number", "integer"))
	reg("atom_number", 2, biAtomNumber)

	// --- lists -----------------------------------------------------------
	reg("length", 2, biLength)
	reg("sort", 2, sortList("sort/2", true))
	reg("msort", 2, sortList("msort/2", false))
	reg("keysort", 2, biKeysort)

	// --- call/N ------------------------------------------------------------
	for n := 1; n <= 8; n++ {
		n := n
		reg("call", n, func(m *Machine, a []Cell) (bool, error) {
			return m.metaCall(a[0], a[1:n])
		})
	}

	// --- findall support ----------------------------------------------------
	reg("$findall_start", 1, func(m *Machine, a []Cell) (bool, error) {
		m.collectors = append(m.collectors, collector{})
		return m.Unify(a[0], MakeInt(int64(len(m.collectors)-1))), nil
	})
	reg("$findall_add", 2, func(m *Machine, a []Cell) (bool, error) {
		i := m.Deref(a[0]).IntVal()
		m.collectors[i].items = append(m.collectors[i].items, m.DecodeTerm(a[1]))
		return true, nil
	})
	reg("$findall_collect", 2, func(m *Machine, a []Cell) (bool, error) {
		i := m.Deref(a[0]).IntVal()
		items := m.collectors[i].items
		m.collectors = m.collectors[:i]
		env := map[*term.Var]Cell{}
		lst := m.EncodeTerm(term.List(items...), env)
		return m.Unify(a[1], lst), nil
	})

	// --- output ----------------------------------------------------------
	reg("write", 1, func(m *Machine, a []Cell) (bool, error) {
		_, err := fmt.Fprint(m.Out, m.DecodeTerm(a[0]).String())
		return true, err
	})
	reg("print", 1, func(m *Machine, a []Cell) (bool, error) {
		_, err := fmt.Fprint(m.Out, m.DecodeTerm(a[0]).String())
		return true, err
	})
	reg("nl", 0, func(m *Machine, _ []Cell) (bool, error) {
		_, err := fmt.Fprintln(m.Out)
		return true, err
	})
	reg("tab", 1, func(m *Machine, a []Cell) (bool, error) {
		if m.Deref(a[0]).Tag() == TagRef {
			return false, m.argError(a[0], "evaluable", "tab/1")
		}
		n, err := m.Eval(a[0])
		if err != nil {
			return false, err
		}
		_, err = fmt.Fprint(m.Out, strings.Repeat(" ", int(n.I)))
		return true, err
	})
}

// tentatively runs f and rolls back all bindings it made, returning f's
// result. It is the engine's speculative-unification primitive (\=/2 and
// the EDB pre-unification filter both use it).
func (m *Machine) tentatively(f func() bool) bool {
	oldHB := m.hb
	m.hb = int(^uint(0) >> 1) // trail every binding
	tr := len(m.trail)
	h := len(m.heap)
	fl := len(m.floats)
	ok := f()
	m.unwindTrail(tr)
	m.heap = m.heap[:h]
	m.floats = m.floats[:fl]
	m.hb = oldHB
	return ok
}

// metaCall implements call/N: goal extended with extra arguments.
func (m *Machine) metaCall(goal Cell, extra []Cell) (bool, error) {
	g := m.Deref(goal)
	switch g.Tag() {
	case TagRef:
		return false, fmt.Errorf("wam: call/%d: unbound goal", 1+len(extra))
	case TagCon:
		name := m.Dict.Name(dict.ID(g.Val()))
		fn := m.Dict.Intern(name, len(extra))
		args := append([]Cell(nil), extra...)
		return m.TailCall(fn, args)
	case TagStr:
		f := m.heap[g.Val()]
		n := f.FunArity()
		name := m.Dict.Name(f.FunID())
		args := make([]Cell, 0, n+len(extra))
		for i := 1; i <= n; i++ {
			args = append(args, m.heap[g.Val()+i])
		}
		args = append(args, extra...)
		fn := m.Dict.Intern(name, len(args))
		return m.TailCall(fn, args)
	case TagLis:
		// A list goal is consult-style sugar; not supported.
		return false, fmt.Errorf("wam: call: list is not a callable term")
	}
	return false, fmt.Errorf("wam: call: type error (callable expected)")
}

// groundCell reports whether the term under c contains no unbound vars.
func (m *Machine) groundCell(c Cell) bool {
	work := []Cell{c}
	for len(work) > 0 {
		d := m.Deref(work[len(work)-1])
		work = work[:len(work)-1]
		switch d.Tag() {
		case TagRef:
			return false
		case TagLis:
			work = append(work, m.heap[d.Val()], m.heap[d.Val()+1])
		case TagStr:
			f := m.heap[d.Val()]
			for i := 1; i <= f.FunArity(); i++ {
				work = append(work, m.heap[d.Val()+i])
			}
		}
	}
	return true
}

// CompareCells implements the standard order of terms over heap cells:
// Var < Number < Atom < Compound.
func (m *Machine) CompareCells(a, b Cell) int {
	da, db := m.Deref(a), m.Deref(b)
	ra, rb := m.cellRank(da), m.cellRank(db)
	if ra != rb {
		return ra - rb
	}
	switch da.Tag() {
	case TagRef:
		return da.Val() - db.Val()
	case TagInt, TagFlt:
		var x, y term.Number
		if da.Tag() == TagInt {
			x = term.IntNumber(da.IntVal())
		} else {
			x = term.FloatNumber(m.floats[da.Val()])
		}
		if db.Tag() == TagInt {
			y = term.IntNumber(db.IntVal())
		} else {
			y = term.FloatNumber(m.floats[db.Val()])
		}
		if c := term.CompareNumbers(x, y); c != 0 {
			return c
		}
		// Equal value: Float precedes Int.
		if da.Tag() == db.Tag() {
			return 0
		}
		if da.Tag() == TagFlt {
			return -1
		}
		return 1
	case TagCon:
		return strings.Compare(m.Dict.Name(dict.ID(da.Val())), m.Dict.Name(dict.ID(db.Val())))
	case TagSmall:
		return int(da.IntVal() - db.IntVal())
	default:
		na, fa, argsA := m.compoundParts(da)
		nb, fb, argsB := m.compoundParts(db)
		if na != nb {
			return na - nb
		}
		if c := strings.Compare(fa, fb); c != 0 {
			return c
		}
		for i := 0; i < na; i++ {
			if c := m.CompareCells(m.heap[argsA+i], m.heap[argsB+i]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// compoundParts returns arity, functor name and the heap address of the
// first argument of a TagStr or TagLis cell.
func (m *Machine) compoundParts(c Cell) (arity int, name string, argBase int) {
	if c.Tag() == TagLis {
		return 2, term.ConsName, c.Val()
	}
	f := m.heap[c.Val()]
	return f.FunArity(), m.Dict.Name(f.FunID()), c.Val() + 1
}

// unifyOccurs unifies with the occurs check.
func (m *Machine) unifyOccurs(a, b Cell) bool {
	da, db := m.Deref(a), m.Deref(b)
	if da == db {
		return true
	}
	if da.Tag() == TagRef {
		if m.occurs(da.Val(), db) {
			return false
		}
		m.bindAddr(da.Val(), db)
		return true
	}
	if db.Tag() == TagRef {
		if m.occurs(db.Val(), da) {
			return false
		}
		m.bindAddr(db.Val(), da)
		return true
	}
	switch {
	case da.Tag() != db.Tag():
		return false
	case da.Tag() == TagLis:
		return m.unifyOccurs(m.heap[da.Val()], m.heap[db.Val()]) &&
			m.unifyOccurs(m.heap[da.Val()+1], m.heap[db.Val()+1])
	case da.Tag() == TagStr:
		fa, fb := m.heap[da.Val()], m.heap[db.Val()]
		if fa != fb {
			return false
		}
		for i := 1; i <= fa.FunArity(); i++ {
			if !m.unifyOccurs(m.heap[da.Val()+i], m.heap[db.Val()+i]) {
				return false
			}
		}
		return true
	case da.Tag() == TagFlt:
		return m.floats[da.Val()] == m.floats[db.Val()]
	default:
		return da == db
	}
}

func (m *Machine) occurs(addr int, c Cell) bool {
	d := m.Deref(c)
	switch d.Tag() {
	case TagRef:
		return d.Val() == addr
	case TagLis:
		return m.occurs(addr, m.heap[d.Val()]) || m.occurs(addr, m.heap[d.Val()+1])
	case TagStr:
		f := m.heap[d.Val()]
		for i := 1; i <= f.FunArity(); i++ {
			if m.occurs(addr, m.heap[d.Val()+i]) {
				return true
			}
		}
	}
	return false
}

func (m *Machine) cellRank(c Cell) int {
	switch c.Tag() {
	case TagRef:
		return 0
	case TagFlt, TagInt:
		return 1
	case TagSmall:
		return 1
	case TagCon:
		return 2
	default:
		return 3
	}
}

// copyCell copies the term under c with fresh variables, preserving
// variable sharing via vars (old heap addr -> new cell).
func (m *Machine) copyCell(c Cell, vars map[int]Cell) Cell {
	d := m.Deref(c)
	switch d.Tag() {
	case TagRef:
		if nc, ok := vars[d.Val()]; ok {
			return nc
		}
		nc := MakeRef(m.NewVar())
		vars[d.Val()] = nc
		return nc
	case TagLis:
		h := m.copyCell(m.heap[d.Val()], vars)
		t := m.copyCell(m.heap[d.Val()+1], vars)
		a := m.PushHeap(h)
		m.PushHeap(t)
		return MakeLis(a)
	case TagStr:
		f := m.heap[d.Val()]
		n := f.FunArity()
		args := make([]Cell, n)
		for i := 0; i < n; i++ {
			args[i] = m.copyCell(m.heap[d.Val()+1+i], vars)
		}
		a := m.PushHeap(f)
		for _, ac := range args {
			m.PushHeap(ac)
		}
		return MakeStr(a)
	default:
		return d
	}
}

// --- individual builtins -----------------------------------------------

func biFunctor(m *Machine, a []Cell) (bool, error) {
	t := m.Deref(a[0])
	switch t.Tag() {
	case TagRef:
		name := m.Deref(a[1])
		ar := m.Deref(a[2])
		if ar.Tag() != TagInt {
			return false, fmt.Errorf("wam: functor/3: arity must be an integer")
		}
		n := int(ar.IntVal())
		if n == 0 {
			return m.Unify(t, name), nil
		}
		if name.Tag() != TagCon {
			return false, fmt.Errorf("wam: functor/3: name must be an atom")
		}
		if n == 2 && dict.ID(name.Val()) == m.Dict.Intern(term.ConsName, 0) {
			addr := m.NewVar()
			m.NewVar()
			return m.Unify(t, MakeLis(addr)), nil
		}
		fn := m.Dict.Intern(m.Dict.Name(dict.ID(name.Val())), n)
		addr := m.PushHeap(MakeFun(fn, n))
		for i := 0; i < n; i++ {
			m.NewVar()
		}
		return m.Unify(t, MakeStr(addr)), nil
	case TagStr:
		f := m.heap[t.Val()]
		nameID := m.Dict.Intern(m.Dict.Name(f.FunID()), 0)
		return m.Unify(a[1], MakeCon(nameID)) && m.Unify(a[2], MakeInt(int64(f.FunArity()))), nil
	case TagLis:
		consID := m.Dict.Intern(term.ConsName, 0)
		return m.Unify(a[1], MakeCon(consID)) && m.Unify(a[2], MakeInt(2)), nil
	default:
		return m.Unify(a[1], t) && m.Unify(a[2], MakeInt(0)), nil
	}
}

func biArg(m *Machine, a []Cell) (bool, error) {
	nc := m.Deref(a[0])
	t := m.Deref(a[1])
	if nc.Tag() != TagInt {
		return false, fmt.Errorf("wam: arg/3: first argument must be an integer")
	}
	n := int(nc.IntVal())
	switch t.Tag() {
	case TagStr:
		f := m.heap[t.Val()]
		if n < 1 || n > f.FunArity() {
			return false, nil
		}
		return m.Unify(a[2], m.heap[t.Val()+n]), nil
	case TagLis:
		if n < 1 || n > 2 {
			return false, nil
		}
		return m.Unify(a[2], m.heap[t.Val()+n-1]), nil
	}
	return false, fmt.Errorf("wam: arg/3: second argument must be compound")
}

func biUniv(m *Machine, a []Cell) (bool, error) {
	t := m.Deref(a[0])
	switch t.Tag() {
	case TagRef:
		items, ok := m.cellList(a[1])
		if !ok || len(items) == 0 {
			return false, fmt.Errorf("wam: =../2: right side must be a non-empty list")
		}
		head := m.Deref(items[0])
		if len(items) == 1 {
			return m.Unify(t, head), nil
		}
		if head.Tag() != TagCon {
			return false, fmt.Errorf("wam: =../2: functor must be an atom")
		}
		name := m.Dict.Name(dict.ID(head.Val()))
		n := len(items) - 1
		if name == term.ConsName && n == 2 {
			addr := m.PushHeap(items[1])
			m.PushHeap(items[2])
			return m.Unify(t, MakeLis(addr)), nil
		}
		fn := m.Dict.Intern(name, n)
		addr := m.PushHeap(MakeFun(fn, n))
		for _, it := range items[1:] {
			m.PushHeap(it)
		}
		return m.Unify(t, MakeStr(addr)), nil
	case TagStr:
		f := m.heap[t.Val()]
		items := make([]Cell, 0, f.FunArity()+1)
		items = append(items, MakeCon(m.Dict.Intern(m.Dict.Name(f.FunID()), 0)))
		for i := 1; i <= f.FunArity(); i++ {
			items = append(items, m.heap[t.Val()+i])
		}
		return m.Unify(a[1], m.makeList(items)), nil
	case TagLis:
		items := []Cell{
			MakeCon(m.Dict.Intern(term.ConsName, 0)),
			m.heap[t.Val()], m.heap[t.Val()+1],
		}
		return m.Unify(a[1], m.makeList(items)), nil
	default:
		return m.Unify(a[1], m.makeList([]Cell{t})), nil
	}
}

// cellList collects the elements of a proper list cell.
func (m *Machine) cellList(c Cell) ([]Cell, bool) {
	var out []Cell
	d := m.Deref(c)
	for {
		switch d.Tag() {
		case TagCon:
			if d == MakeCon(m.nilID()) {
				return out, true
			}
			return nil, false
		case TagLis:
			out = append(out, m.heap[d.Val()])
			d = m.Deref(m.heap[d.Val()+1])
		default:
			return nil, false
		}
	}
}

// makeList builds a heap list from cells.
func (m *Machine) makeList(items []Cell) Cell {
	tail := MakeCon(m.nilID())
	for i := len(items) - 1; i >= 0; i-- {
		a := m.PushHeap(items[i])
		m.PushHeap(tail)
		tail = MakeLis(a)
	}
	return tail
}

func (m *Machine) textOf(c Cell) (string, bool) {
	d := m.Deref(c)
	switch d.Tag() {
	case TagCon:
		return m.Dict.Name(dict.ID(d.Val())), true
	case TagInt:
		return strconv.FormatInt(d.IntVal(), 10), true
	case TagFlt:
		return term.Float(m.floats[d.Val()]).String(), true
	}
	return "", false
}

// textList is the builtin pi of atom_codes/2, atom_chars/2 and
// number_codes/2: the text of the first argument, of type of (atom or
// number; an atom's text may be a number's), as the list of its characters
// (elements of type typ, character or integer code), or the text the list
// spells.
func textList(pi, of, typ string) BuiltinFn {
	return func(m *Machine, a []Cell) (bool, error) {
		d := m.Deref(a[0])
		if s, ok := m.textOf(d); ok && (of == "atom" || d.Tag() != TagCon) {
			var items []Cell
			for _, r := range s {
				if typ == "character" {
					items = append(items, MakeCon(m.Dict.Intern(string(r), 0)))
				} else {
					items = append(items, MakeInt(int64(r)))
				}
			}
			return m.Unify(a[1], m.makeList(items)), nil
		}
		items, ok := m.cellList(a[1])
		if !ok {
			return false, m.argError(d, of, pi)
		}
		var b strings.Builder
		for _, it := range items {
			switch it = m.Deref(it); {
			case typ == "character" && it.Tag() == TagCon:
				b.WriteString(m.Dict.Name(it.AtomID()))
			case typ == "integer" && it.Tag() == TagInt:
				b.WriteRune(rune(it.IntVal()))
			default:
				return false, m.argError(it, typ, pi)
			}
		}
		if of == "atom" {
			return m.Unify(a[0], MakeCon(m.Dict.Intern(b.String(), 0))), nil
		}
		cell, err := m.parseNumberText(b.String())
		if err != nil {
			return false, err
		}
		return m.Unify(a[0], cell), nil
	}
}

func biCharCode(m *Machine, a []Cell) (bool, error) {
	c := m.Deref(a[0])
	if c.Tag() == TagCon {
		name := []rune(m.Dict.Name(dict.ID(c.Val())))
		if len(name) != 1 {
			return false, m.argError(c, "character", "char_code/2")
		}
		return m.Unify(a[1], MakeInt(int64(name[0]))), nil
	}
	code := m.Deref(a[1])
	if code.Tag() != TagInt {
		return false, m.argError(code, "integer", "char_code/2")
	}
	return m.Unify(a[0], MakeCon(m.Dict.Intern(string(rune(code.IntVal())), 0))), nil
}

func biAtomLength(m *Machine, a []Cell) (bool, error) {
	s, ok := m.textOf(a[0])
	if !ok {
		return false, m.argError(a[0], "atom", "atom_length/2")
	}
	return m.Unify(a[1], MakeInt(int64(len([]rune(s))))), nil
}

func biAtomConcat(m *Machine, a []Cell) (bool, error) {
	s1, ok1 := m.textOf(a[0])
	s2, ok2 := m.textOf(a[1])
	if ok1 && ok2 {
		return m.Unify(a[2], MakeCon(m.Dict.Intern(s1+s2, 0))), nil
	}
	s3, ok3 := m.textOf(a[2])
	if !ok3 {
		return false, fmt.Errorf("wam: atom_concat/3: insufficiently instantiated")
	}
	if ok1 {
		if strings.HasPrefix(s3, s1) {
			return m.Unify(a[1], MakeCon(m.Dict.Intern(s3[len(s1):], 0))), nil
		}
		return false, nil
	}
	if ok2 {
		if strings.HasSuffix(s3, s2) {
			return m.Unify(a[0], MakeCon(m.Dict.Intern(s3[:len(s3)-len(s2)], 0))), nil
		}
		return false, nil
	}
	// Nondeterministic split of s3.
	runes := []rune(s3)
	i := 0
	fn := func(m *Machine) (bool, error) {
		if i > len(runes) {
			return false, nil
		}
		k := i
		i++
		return m.tentativelyCommit(func() bool {
			return m.Unify(m.Reg(0), MakeCon(m.Dict.Intern(string(runes[:k]), 0))) &&
				m.Unify(m.Reg(1), MakeCon(m.Dict.Intern(string(runes[k:]), 0)))
		}), nil
	}
	m.PushRedo(fn)
	return fn(m)
}

// tentativelyCommit runs f; on failure all bindings made by f are undone,
// on success they are kept.
func (m *Machine) tentativelyCommit(f func() bool) bool {
	oldHB := m.hb
	m.hb = int(^uint(0) >> 1)
	tr := len(m.trail)
	h := len(m.heap)
	fl := len(m.floats)
	ok := f()
	if !ok {
		m.unwindTrail(tr)
		m.heap = m.heap[:h]
		m.floats = m.floats[:fl]
	}
	m.hb = oldHB
	return ok
}

func (m *Machine) parseNumberText(s string) (Cell, error) {
	s = strings.TrimSpace(s)
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return MakeInt(v), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return m.PushFloat(f), nil
	}
	return 0, fmt.Errorf("wam: %q is not a number", s)
}

func biAtomNumber(m *Machine, a []Cell) (bool, error) {
	d := m.Deref(a[0])
	if d.Tag() == TagCon {
		cell, err := m.parseNumberText(m.Dict.Name(dict.ID(d.Val())))
		if err != nil {
			return false, nil // atom_number fails silently on non-numbers
		}
		return m.Unify(a[1], cell), nil
	}
	n := m.Deref(a[1])
	s, ok := m.textOf(n)
	if !ok {
		return false, fmt.Errorf("wam: atom_number/2: insufficiently instantiated")
	}
	return m.Unify(a[0], MakeCon(m.Dict.Intern(s, 0))), nil
}

func biLength(m *Machine, a []Cell) (bool, error) {
	if items, ok := m.cellList(a[0]); ok {
		return m.Unify(a[1], MakeInt(int64(len(items)))), nil
	}
	l := m.Deref(a[0])
	n := m.Deref(a[1])
	if l.Tag() == TagRef && n.Tag() == TagInt {
		k := int(n.IntVal())
		if k < 0 {
			return false, nil
		}
		items := make([]Cell, k)
		for i := range items {
			items[i] = MakeRef(m.NewVar())
		}
		return m.Unify(l, m.makeList(items)), nil
	}
	return false, fmt.Errorf("wam: length/2: insufficiently instantiated")
}

// sortList is sort/2, which drops duplicates (dedup), or msort/2.
func sortList(pi string, dedup bool) BuiltinFn {
	return func(m *Machine, a []Cell) (bool, error) {
		items, ok := m.cellList(a[0])
		if !ok {
			return false, fmt.Errorf("wam: %s: first argument must be a proper list", pi)
		}
		sort.SliceStable(items, func(i, j int) bool { return m.CompareCells(items[i], items[j]) < 0 })
		if dedup {
			items = slices.CompactFunc(items, func(x, y Cell) bool { return m.CompareCells(x, y) == 0 })
		}
		return m.Unify(a[1], m.makeList(items)), nil
	}
}

func biKeysort(m *Machine, a []Cell) (bool, error) {
	items, ok := m.cellList(a[0])
	if !ok {
		return false, m.argError(a[0], "list", "keysort/2")
	}
	key := func(c Cell) (Cell, error) {
		d := m.Deref(c)
		if d.Tag() != TagStr || m.Dict.Name(m.heap[d.Val()].FunID()) != "-" || m.heap[d.Val()].FunArity() != 2 {
			return 0, m.argError(d, "pair", "keysort/2")
		}
		return m.heap[d.Val()+1], nil
	}
	for _, it := range items {
		if _, err := key(it); err != nil {
			return false, err
		}
	}
	sort.SliceStable(items, func(i, j int) bool {
		ki, _ := key(items[i])
		kj, _ := key(items[j])
		return m.CompareCells(ki, kj) < 0
	})
	return m.Unify(a[1], m.makeList(items)), nil
}

// TryUnify runs f, keeping any bindings it makes on success and undoing
// them all on failure. Engine-level nondeterministic builtins (relation
// cursors, clause/2) use it to attempt tuple matches.
func (m *Machine) TryUnify(f func() bool) bool { return m.tentativelyCommit(f) }

// registerExtraBuiltins adds the cyclic-data detection facilities the
// paper's introduction mentions Educe* provides.
func registerExtraBuiltins(m *Machine) {
	m.RegisterBuiltin(Builtin{Name: "acyclic_term", Arity: 1, Fn: func(m *Machine, a []Cell) (bool, error) {
		return m.acyclic(a[0], map[int]bool{}), nil
	}})
	m.RegisterBuiltin(Builtin{Name: "cyclic_term", Arity: 1, Fn: func(m *Machine, a []Cell) (bool, error) {
		return !m.acyclic(a[0], map[int]bool{}), nil
	}})
}

// acyclic reports whether the term under c contains no cycles, using a
// DFS with an on-path set over structure addresses.
func (m *Machine) acyclic(c Cell, onPath map[int]bool) bool {
	d := m.Deref(c)
	switch d.Tag() {
	case TagLis:
		a := d.Val()
		if onPath[a] {
			return false
		}
		onPath[a] = true
		ok := m.acyclic(m.heap[a], onPath) && m.acyclic(m.heap[a+1], onPath)
		delete(onPath, a)
		return ok
	case TagStr:
		a := d.Val()
		if onPath[a] {
			return false
		}
		onPath[a] = true
		f := m.heap[a]
		for i := 1; i <= f.FunArity(); i++ {
			if !m.acyclic(m.heap[a+i], onPath) {
				delete(onPath, a)
				return false
			}
		}
		delete(onPath, a)
		return true
	default:
		return true
	}
}
