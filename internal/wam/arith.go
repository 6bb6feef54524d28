package wam

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/term"
)

// numberCell converts n into a heap cell (floats are interned).
func (m *Machine) numberCell(n term.Number) Cell {
	if n.IsFloat {
		return m.PushFloat(n.F)
	}
	return MakeInt(n.I)
}

// ErrArith reports an arithmetic evaluation failure.
type ErrArith struct{ Msg string }

func (e *ErrArith) Error() string { return "wam: arithmetic: " + e.Msg }

func arithErrf(format string, args ...any) error {
	return &ErrArith{Msg: fmt.Sprintf(format, args...)}
}

// arithResult wraps an error of the shared table as an ErrArith.
func arithResult(n term.Number, err error) (term.Number, error) {
	if err != nil {
		return term.Number{}, &ErrArith{Msg: err.Error()}
	}
	return n, nil
}

// Eval evaluates cell c as an arithmetic expression (the right side of
// is/2 and the operands of the arithmetic comparisons); what each
// constant and function computes is package term's table, shared with
// the interpreter.
func (m *Machine) Eval(c Cell) (term.Number, error) {
	d := m.Deref(c)
	switch d.Tag() {
	case TagInt:
		return term.IntNumber(d.IntVal()), nil
	case TagFlt:
		return term.FloatNumber(m.floats[d.Val()]), nil
	case TagRef:
		return term.Number{}, arithErrf("unbound variable in expression")
	case TagCon:
		name := m.Dict.Name(dict.ID(d.Val()))
		if name == "max_tagged_integer" {
			return term.IntNumber(MaxInt), nil
		}
		return arithResult(term.ArithConstant(name))
	case TagStr:
		f := m.heap[d.Val()]
		name := m.Dict.Name(f.FunID())
		n := f.FunArity()
		if n == 1 {
			a, err := m.Eval(m.heap[d.Val()+1])
			if err != nil {
				return term.Number{}, err
			}
			return arithResult(term.EvalUnary(name, a))
		}
		if n == 2 {
			a, err := m.Eval(m.heap[d.Val()+1])
			if err != nil {
				return term.Number{}, err
			}
			b, err := m.Eval(m.heap[d.Val()+2])
			if err != nil {
				return term.Number{}, err
			}
			return arithResult(term.EvalBinary(name, a, b))
		}
		return term.Number{}, arithErrf("unknown function %s/%d", name, n)
	case TagLis:
		// [X] evaluates to X per tradition (a single character code).
		if m.Deref(m.heap[d.Val()+1]) == MakeCon(m.nilID()) {
			return m.Eval(m.heap[d.Val()])
		}
	}
	return term.Number{}, arithErrf("type error in expression (tag %v)", d.Tag())
}
