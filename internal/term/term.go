// Package term defines the symbolic representation of Prolog terms used by
// the reader, the compiler and the host-language API.
//
// This representation is deliberately separate from the WAM's tagged heap
// cells (package wam): the reader produces term.Term values, the compiler
// consumes them, and query results are decoded from the heap back into
// term.Term values for the caller.
package term

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Term is a symbolic Prolog term: an Atom, Int, Float, *Var or *Compound.
type Term interface {
	// Indicator returns the name/arity predicate indicator of the term.
	// Atoms have arity 0; integers, floats and variables return an
	// indicator with an empty name.
	Indicator() Indicator

	// String renders the term in canonical (quoted, operator-free) form.
	String() string

	isTerm()
}

// Indicator identifies a functor by name and arity, e.g. foo/2.
type Indicator struct {
	Name  string
	Arity int
}

func (pi Indicator) String() string { return quoteAtom(pi.Name) + "/" + strconv.Itoa(pi.Arity) }

// Atom is a Prolog atom such as foo, [], or 'hello world'.
type Atom string

// Int is a Prolog integer.
type Int int64

// Float is a Prolog floating point number.
type Float float64

// Var is a logic variable. Identity is by pointer: two *Var values with the
// same Name are distinct variables unless they are the same pointer. The
// reader shares one *Var per name within a single read.
type Var struct {
	// Name is the source name of the variable ("X", "_G12", ...). It is
	// advisory; identity is pointer identity.
	Name string
}

// Compound is a compound term Functor(Args...). Arity is len(Args) and is
// always at least 1; zero-arity terms are Atoms.
type Compound struct {
	Functor string
	Args    []Term
}

func (Atom) isTerm()      {}
func (Int) isTerm()       {}
func (Float) isTerm()     {}
func (*Var) isTerm()      {}
func (*Compound) isTerm() {}

// Indicator implementations.

func (a Atom) Indicator() Indicator      { return Indicator{Name: string(a)} }
func (Int) Indicator() Indicator         { return Indicator{} }
func (Float) Indicator() Indicator       { return Indicator{} }
func (*Var) Indicator() Indicator        { return Indicator{} }
func (c *Compound) Indicator() Indicator { return Indicator{Name: c.Functor, Arity: len(c.Args)} }

// New builds a term from a functor name and arguments. With no arguments it
// returns an Atom, otherwise a *Compound.
func New(functor string, args ...Term) Term {
	if len(args) == 0 {
		return Atom(functor)
	}
	return &Compound{Functor: functor, Args: args}
}

// Comp builds a *Compound; it panics if no arguments are given.
func Comp(functor string, args ...Term) *Compound {
	if len(args) == 0 {
		panic("term.Comp: compound term needs at least one argument")
	}
	return &Compound{Functor: functor, Args: args}
}

// Well-known atoms.
const (
	NilAtom  = Atom("[]")
	ConsName = "."
	TrueAtom = Atom("true")
)

// Cons builds a list cell '.'(Head, Tail).
func Cons(head, tail Term) *Compound {
	return &Compound{Functor: ConsName, Args: []Term{head, tail}}
}

// List builds a proper list of the given items.
func List(items ...Term) Term { return ListTail(NilAtom, items...) }

// ListTail builds a partial list of items ending in tail.
func ListTail(tail Term, items ...Term) Term {
	t := tail
	for i := len(items) - 1; i >= 0; i-- {
		t = Cons(items[i], t)
	}
	return t
}

// UnpackList splits a term into the elements of a proper list. ok is false
// if the term is not a proper list (including partial lists).
func UnpackList(t Term) (items []Term, ok bool) {
	for {
		switch x := t.(type) {
		case Atom:
			if x == NilAtom {
				return items, true
			}
			return nil, false
		case *Compound:
			if x.Functor == ConsName && len(x.Args) == 2 {
				items = append(items, x.Args[0])
				t = x.Args[1]
				continue
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// IsCons reports whether t is a '.'/2 cell.
func IsCons(t Term) (*Compound, bool) {
	c, ok := t.(*Compound)
	if ok && c.Functor == ConsName && len(c.Args) == 2 {
		return c, true
	}
	return nil, false
}

// Equal reports structural equality of two terms. Variables are equal only
// if they are the same pointer.
func Equal(a, b Term) bool {
	switch x := a.(type) {
	case Atom:
		y, ok := b.(Atom)
		return ok && x == y
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Float:
		y, ok := b.(Float)
		return ok && x == y
	case *Var:
		return a == b
	case *Compound:
		y, ok := b.(*Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare implements the standard order of terms:
// Var < Float/Int (by value) < Atom < Compound (by arity, then name, then args).
// Distinct variables are ordered by an arbitrary but consistent pointer-free
// rule (their names, then fmt pointer string) — adequate for sorting.
func Compare(a, b Term) int {
	oa, ob := stdOrder(a), stdOrder(b)
	if oa != ob {
		return oa - ob
	}
	switch x := a.(type) {
	case *Var:
		y := b.(*Var)
		if x == y {
			return 0
		}
		if c := strings.Compare(x.Name, y.Name); c != 0 {
			return c
		}
		return strings.Compare(fmt.Sprintf("%p", x), fmt.Sprintf("%p", y))
	case Int:
		switch y := b.(type) {
		case Int:
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case Float:
			return -cmpFloat(float64(y), float64(x))
		}
	case Float:
		switch y := b.(type) {
		case Int:
			return cmpFloat(float64(x), float64(y))
		case Float:
			return cmpFloat(float64(x), float64(y))
		}
	case Atom:
		return strings.Compare(string(x), string(b.(Atom)))
	case *Compound:
		y := b.(*Compound)
		if d := len(x.Args) - len(y.Args); d != 0 {
			return d
		}
		if c := strings.Compare(x.Functor, y.Functor); c != 0 {
			return c
		}
		for i := range x.Args {
			if c := Compare(x.Args[i], y.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func stdOrder(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Float, Int:
		return 1
	case Atom:
		return 2
	case *Compound:
		return 3
	}
	return 4
}

// Variables returns the distinct variables of t in first-occurrence order.
func Variables(t Term) []*Var {
	var out []*Var
	seen := map[*Var]bool{}
	var walk func(Term)
	walk = func(t Term) {
		switch x := t.(type) {
		case *Var:
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		case *Compound:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(t)
	return out
}

// IsGround reports whether t contains no variables.
func IsGround(t Term) bool {
	switch x := t.(type) {
	case *Var:
		return false
	case *Compound:
		for _, a := range x.Args {
			if !IsGround(a) {
				return false
			}
		}
	}
	return true
}

// Rename returns a copy of t with every variable replaced by a fresh one
// of the same name. Sharing within t is preserved.
func Rename(t Term) Term {
	return renameVars(t, map[*Var]*Var{}, func(v *Var) string { return v.Name })
}

// Fresh replaces each of ts by a copy whose variables are fresh ones named
// _G0, _G1, ... in order of first occurrence, and returns ts. A variable
// two of them share is one fresh variable in both.
func Fresh(ts []Term) []Term {
	m := map[*Var]*Var{}
	for i, t := range ts {
		ts[i] = renameVars(t, m, func(*Var) string { return "_G" + strconv.Itoa(len(m)) })
	}
	return ts
}

// renameVars copies t, replacing each variable by its fresh one in m, new
// ones named by name.
func renameVars(t Term, m map[*Var]*Var, name func(*Var) string) Term {
	switch x := t.(type) {
	case *Var:
		nv, ok := m[x]
		if !ok {
			nv = &Var{Name: name(x)}
			m[x] = nv
		}
		return nv
	case *Compound:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameVars(a, m, name)
		}
		return &Compound{Functor: x.Functor, Args: args}
	default:
		return t
	}
}

// String renderings (canonical, quoted).

func (a Atom) String() string { return quoteAtom(string(a)) }
func (i Int) String() string  { return strconv.FormatInt(int64(i), 10) }

func (f Float) String() string {
	v := float64(f)
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// Prolog floats must contain a '.' or exponent.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (v *Var) String() string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("_G%p", v)
}

func (c *Compound) String() string {
	var b strings.Builder
	writeCompound(&b, c)
	return b.String()
}

func writeCompound(b *strings.Builder, c *Compound) {
	// List sugar.
	if c.Functor == ConsName && len(c.Args) == 2 {
		b.WriteByte('[')
		writeTerm(b, c.Args[0])
		t := c.Args[1]
		for {
			if cc, ok := IsCons(t); ok {
				b.WriteByte(',')
				writeTerm(b, cc.Args[0])
				t = cc.Args[1]
				continue
			}
			break
		}
		if a, ok := t.(Atom); !ok || a != NilAtom {
			b.WriteByte('|')
			writeTerm(b, t)
		}
		b.WriteByte(']')
		return
	}
	// Curly-brace sugar.
	if c.Functor == "{}" && len(c.Args) == 1 {
		b.WriteByte('{')
		writeTerm(b, c.Args[0])
		b.WriteByte('}')
		return
	}
	b.WriteString(quoteAtom(c.Functor))
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		writeTerm(b, a)
	}
	b.WriteByte(')')
}

func writeTerm(b *strings.Builder, t Term) {
	if c, ok := t.(*Compound); ok {
		writeCompound(b, c)
		return
	}
	b.WriteString(t.String())
}

// quoteAtom renders an atom with quotes when required by Prolog syntax.
func quoteAtom(s string) string {
	if atomNeedsNoQuote(s) {
		return s
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			b.WriteString(`\'`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('\'')
	return b.String()
}

func atomNeedsNoQuote(s string) bool {
	if s == "" {
		return false
	}
	switch s {
	case "[]", "{}", "!", ";":
		return true
	case ",", "|", ".":
		return false
	}
	if isSoloLower(s) {
		return true
	}
	// All-symbolic atoms need no quotes, unless they would open a comment.
	if strings.HasPrefix(s, "/*") {
		return false
	}
	allSym := true
	for _, r := range s {
		if !isSymbolRune(r) {
			allSym = false
			break
		}
	}
	return allSym
}

func isSoloLower(s string) bool {
	for i, r := range s {
		if i == 0 {
			if r < 'a' || r > 'z' {
				return false
			}
			continue
		}
		if !isAlnumRune(r) {
			return false
		}
	}
	return true
}

func isAlnumRune(r rune) bool {
	return r == '_' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isSymbolRune(r rune) bool {
	switch r {
	case '+', '-', '*', '/', '\\', '^', '<', '>', '=', '~', ':', '.', '?', '@', '#', '&', '$':
		return true
	}
	return false
}

// SortTerms sorts a slice of terms in the standard order of terms, in place.
func SortTerms(ts []Term) {
	sort.SliceStable(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}
