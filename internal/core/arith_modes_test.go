package core

// Compiled and source rule storage evaluate arithmetic in different
// machines, the WAM and the interpreter, over one number table
// (package term). Every constant, function and comparison of that table
// must give the same answer, or fail with the same reason, in both. The
// operands are bound at run time, so no evaluation happens at compile
// time.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/term"
)

var (
	arithConstants = []string{"pi", "e", "inf", "infinite", "nan", "epsilon", "random", "no_such_constant"}
	arithUnary     = []string{"-", "+", "abs", "sign", "min", "max", "sqrt", "sin", "cos", "tan", "asin", "acos", "atan",
		"exp", "log", "log2", "float", "integer", "float_integer_part", "float_fractional_part", "truncate", "round",
		"ceiling", "floor", "\\", "msb", "succ", "no_such_function"}
	arithBinary = []string{"+", "-", "*", "/", "//", "div", "mod", "rem", "min", "max", "**", "^", ">>", "<<",
		"/\\", "\\/", "xor", "atan", "atan2", "gcd", "copysign", "no_such_function"}
	arithCompare = []string{"=:=", "=\\=", "<", ">", "=<", ">="}

	arithArgs  = []string{"7", "-7", "0", "1", "2.5", "-2.5", "0.0", "9007199254740993"}
	arithPairs = [][2]string{{"7", "2"}, {"-7", "2"}, {"7", "-2"}, {"6", "3"}, {"7", "0"}, {"7.5", "2"},
		{"2", "0.5"}, {"0.0", "0.0"}, {"-2.5", "2.5"}, {"2", "10"}, {"1", "1.0"}}
	// Integers past float64's exact range compare exactly.
	arithComparePairs = append(arithPairs, [2]string{"9007199254740993", "9007199254740992"})
)

// arithOutcome runs q and renders its answers, or the reason it failed:
// the error text after its package prefix.
func arithOutcome(s *Session, q string) string {
	sols, err := s.QueryAll(q)
	if err != nil {
		msg := err.Error()
		for _, prefix := range []string{"wam: arithmetic: ", "interp: "} {
			if i := strings.LastIndex(msg, prefix); i >= 0 {
				return "error: " + msg[i+len(prefix):]
			}
		}
		return "error: " + msg
	}
	return fmt.Sprint(renderSolutions(sols))
}

func TestArithmeticModesAgree(t *testing.T) {
	var queries []string
	for _, c := range arithConstants {
		queries = append(queries, "X is "+c)
	}
	for _, f := range arithUnary {
		for _, a := range arithArgs {
			queries = append(queries, fmt.Sprintf("A = %s, X is %s(A)", a, term.Atom(f)))
		}
	}
	for _, f := range arithBinary {
		for _, p := range arithPairs {
			queries = append(queries, fmt.Sprintf("A = %s, B = %s, X is %s(A, B)", p[0], p[1], term.Atom(f)))
		}
	}
	for _, op := range arithCompare {
		for _, p := range arithComparePairs {
			queries = append(queries, fmt.Sprintf("A = %s, B = %s, %s(A, B)", p[0], p[1], term.Atom(op)))
		}
	}
	queries = append(queries, "A = [0'a], X is A + 1")

	compiled := newSession(t, Options{})
	source := newSession(t, Options{RuleStorage: RuleStorageSource})
	for _, q := range queries {
		c, s := arithOutcome(compiled, q), arithOutcome(source, q)
		if c != s {
			t.Errorf("%s:\n  compiled: %s\n  source:   %s", q, c, s)
		}
	}
}
