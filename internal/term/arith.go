package term

// Arithmetic. The WAM (package wam) and the interpreter (package
// interp) each walk an expression their own way, over heap cells and
// over terms, and both call this one table for what a constant, a
// number function or a comparison means, so compiled and source rule
// storage agree on every value it computes and every error it returns.
// Only max_tagged_integer, the bound of the WAM's integer cells, is the
// WAM's own.

import (
	"fmt"
	"math"
)

// Number is the result of arithmetic evaluation: an integer or a float.
type Number struct {
	IsFloat bool
	I       int64
	F       float64
}

// IntNumber returns the integer v as a Number.
func IntNumber(v int64) Number { return Number{I: v} }

// FloatNumber returns the float v as a Number.
func FloatNumber(v float64) Number { return Number{IsFloat: true, F: v} }

// NumberOf returns t as a Number if t is an Int or a Float.
func NumberOf(t Term) (Number, bool) {
	switch x := t.(type) {
	case Int:
		return IntNumber(int64(x)), true
	case Float:
		return FloatNumber(float64(x)), true
	}
	return Number{}, false
}

// Term returns n as an Int or a Float.
func (n Number) Term() Term {
	if n.IsFloat {
		return Float(n.F)
	}
	return Int(n.I)
}

// AsFloat returns the numeric value as a float64.
func (n Number) AsFloat() float64 {
	if n.IsFloat {
		return n.F
	}
	return float64(n.I)
}

// ArithConstant evaluates the arithmetic constant name.
func ArithConstant(name string) (Number, error) {
	switch name {
	case "pi":
		return FloatNumber(math.Pi), nil
	case "e":
		return FloatNumber(math.E), nil
	case "inf", "infinite":
		return FloatNumber(math.Inf(1)), nil
	case "nan":
		return FloatNumber(math.NaN()), nil
	case "epsilon":
		return FloatNumber(2.220446049250313e-16), nil
	case "random":
		// Deterministic stand-in; real randomness would break
		// reproducible benchmarks.
		return FloatNumber(0.42), nil
	}
	return Number{}, fmt.Errorf("unknown constant %s", name)
}

// EvalUnary applies the arithmetic function name/1 to a. An error is
// the bare reason; each evaluator wraps it in its own error.
func EvalUnary(name string, a Number) (Number, error) {
	switch name {
	case "-":
		if a.IsFloat {
			return FloatNumber(-a.F), nil
		}
		return IntNumber(-a.I), nil
	case "+":
		return a, nil
	case "abs":
		if a.IsFloat {
			return FloatNumber(math.Abs(a.F)), nil
		}
		if a.I < 0 {
			return IntNumber(-a.I), nil
		}
		return a, nil
	case "sign":
		if a.IsFloat {
			switch {
			case a.F > 0:
				return FloatNumber(1), nil
			case a.F < 0:
				return FloatNumber(-1), nil
			}
			return FloatNumber(0), nil
		}
		switch {
		case a.I > 0:
			return IntNumber(1), nil
		case a.I < 0:
			return IntNumber(-1), nil
		}
		return IntNumber(0), nil
	case "min", "max":
		return Number{}, fmt.Errorf("%s/1 is not a function", name)
	case "sqrt":
		return FloatNumber(math.Sqrt(a.AsFloat())), nil
	case "sin":
		return FloatNumber(math.Sin(a.AsFloat())), nil
	case "cos":
		return FloatNumber(math.Cos(a.AsFloat())), nil
	case "tan":
		return FloatNumber(math.Tan(a.AsFloat())), nil
	case "asin":
		return FloatNumber(math.Asin(a.AsFloat())), nil
	case "acos":
		return FloatNumber(math.Acos(a.AsFloat())), nil
	case "atan":
		return FloatNumber(math.Atan(a.AsFloat())), nil
	case "exp":
		return FloatNumber(math.Exp(a.AsFloat())), nil
	case "log":
		return FloatNumber(math.Log(a.AsFloat())), nil
	case "log2":
		return FloatNumber(math.Log2(a.AsFloat())), nil
	case "float":
		return FloatNumber(a.AsFloat()), nil
	case "integer":
		if a.IsFloat {
			return IntNumber(int64(math.Round(a.F))), nil
		}
		return a, nil
	case "float_integer_part":
		return FloatNumber(math.Trunc(a.AsFloat())), nil
	case "float_fractional_part":
		f := a.AsFloat()
		return FloatNumber(f - math.Trunc(f)), nil
	case "truncate":
		return IntNumber(int64(math.Trunc(a.AsFloat()))), nil
	case "round":
		return IntNumber(int64(math.Round(a.AsFloat()))), nil
	case "ceiling":
		return IntNumber(int64(math.Ceil(a.AsFloat()))), nil
	case "floor":
		return IntNumber(int64(math.Floor(a.AsFloat()))), nil
	case "\\":
		if a.IsFloat {
			return Number{}, fmt.Errorf("\\ requires an integer")
		}
		return IntNumber(^a.I), nil
	case "msb":
		if a.IsFloat || a.I <= 0 {
			return Number{}, fmt.Errorf("msb requires a positive integer")
		}
		b := int64(-1)
		for v := a.I; v != 0; v >>= 1 {
			b++
		}
		return IntNumber(b), nil
	case "succ":
		if a.IsFloat {
			return Number{}, fmt.Errorf("succ requires an integer")
		}
		return IntNumber(a.I + 1), nil
	}
	return Number{}, fmt.Errorf("unknown function %s/1", name)
}

// EvalBinary applies the arithmetic function name/2 to a and b.
func EvalBinary(name string, a, b Number) (Number, error) {
	switch name {
	case "+":
		if a.IsFloat || b.IsFloat {
			return FloatNumber(a.AsFloat() + b.AsFloat()), nil
		}
		return IntNumber(a.I + b.I), nil
	case "-":
		if a.IsFloat || b.IsFloat {
			return FloatNumber(a.AsFloat() - b.AsFloat()), nil
		}
		return IntNumber(a.I - b.I), nil
	case "*":
		if a.IsFloat || b.IsFloat {
			return FloatNumber(a.AsFloat() * b.AsFloat()), nil
		}
		return IntNumber(a.I * b.I), nil
	case "/":
		if !a.IsFloat && !b.IsFloat {
			if b.I == 0 {
				return Number{}, fmt.Errorf("zero divisor")
			}
			if a.I%b.I == 0 {
				return IntNumber(a.I / b.I), nil
			}
			return FloatNumber(float64(a.I) / float64(b.I)), nil
		}
		if b.AsFloat() == 0 {
			return Number{}, fmt.Errorf("zero divisor")
		}
		return FloatNumber(a.AsFloat() / b.AsFloat()), nil
	case "//":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("// requires integers")
		}
		if b.I == 0 {
			return Number{}, fmt.Errorf("zero divisor")
		}
		return IntNumber(a.I / b.I), nil
	case "div":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("div requires integers")
		}
		if b.I == 0 {
			return Number{}, fmt.Errorf("zero divisor")
		}
		q := a.I / b.I
		if (a.I%b.I != 0) && ((a.I < 0) != (b.I < 0)) {
			q--
		}
		return IntNumber(q), nil
	case "mod":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("mod requires integers")
		}
		if b.I == 0 {
			return Number{}, fmt.Errorf("zero divisor")
		}
		r := a.I % b.I
		if r != 0 && ((r < 0) != (b.I < 0)) {
			r += b.I
		}
		return IntNumber(r), nil
	case "rem":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("rem requires integers")
		}
		if b.I == 0 {
			return Number{}, fmt.Errorf("zero divisor")
		}
		return IntNumber(a.I % b.I), nil
	case "min":
		if CompareNumbers(a, b) <= 0 {
			return a, nil
		}
		return b, nil
	case "max":
		if CompareNumbers(a, b) >= 0 {
			return a, nil
		}
		return b, nil
	case "**":
		return FloatNumber(math.Pow(a.AsFloat(), b.AsFloat())), nil
	case "^":
		if !a.IsFloat && !b.IsFloat {
			if b.I < 0 {
				return Number{}, fmt.Errorf("negative integer exponent")
			}
			r := int64(1)
			base := a.I
			for e := b.I; e > 0; e >>= 1 {
				if e&1 == 1 {
					r *= base
				}
				base *= base
			}
			return IntNumber(r), nil
		}
		return FloatNumber(math.Pow(a.AsFloat(), b.AsFloat())), nil
	case ">>":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf(">> requires integers")
		}
		return IntNumber(a.I >> uint(b.I)), nil
	case "<<":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("<< requires integers")
		}
		return IntNumber(a.I << uint(b.I)), nil
	case "/\\":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("/\\ requires integers")
		}
		return IntNumber(a.I & b.I), nil
	case "\\/":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("\\/ requires integers")
		}
		return IntNumber(a.I | b.I), nil
	case "xor":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("xor requires integers")
		}
		return IntNumber(a.I ^ b.I), nil
	case "atan", "atan2":
		return FloatNumber(math.Atan2(a.AsFloat(), b.AsFloat())), nil
	case "gcd":
		if a.IsFloat || b.IsFloat {
			return Number{}, fmt.Errorf("gcd requires integers")
		}
		x, y := a.I, b.I
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		for y != 0 {
			x, y = y, x%y
		}
		return IntNumber(x), nil
	case "copysign":
		return FloatNumber(math.Copysign(a.AsFloat(), b.AsFloat())), nil
	}
	return Number{}, fmt.Errorf("unknown function %s/2", name)
}

// CompareNumbers compares two numbers by value: -1, 0 or 1. Two
// integers compare exactly; otherwise both are widened to float64.
func CompareNumbers(a, b Number) int {
	if !a.IsFloat && !b.IsFloat {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}
