package core

import (
	"fmt"

	"repro/internal/term"
)

// The typed sub-language (paper §3.2.3: "specific machinery to support a
// strongly typed sub-language" strengthening pre-unification; also the
// "work on data types" of §6). A directive
//
//	:- typed(conn(atom, atom, integer)).
//
// declares attribute types for an external procedure. Clauses stored for a
// typed procedure are checked against the declaration, catching schema
// errors at store time — the moral equivalent of the relational catalog's
// type checking (§2.2) applied to clause heads.

// ArgType is a declared head-argument type.
type ArgType uint8

// Declared argument types.
const (
	// TypeAny admits any term.
	TypeAny ArgType = iota
	// TypeAtom admits atoms.
	TypeAtom
	// TypeInteger admits integers.
	TypeInteger
	// TypeFloat admits floats.
	TypeFloat
	// TypeNumber admits integers and floats.
	TypeNumber
	// TypeList admits lists (including partial lists and []).
	TypeList
	// TypeCompound admits compound terms.
	TypeCompound
)

func (a ArgType) String() string {
	switch a {
	case TypeAny:
		return "any"
	case TypeAtom:
		return "atom"
	case TypeInteger:
		return "integer"
	case TypeFloat:
		return "float"
	case TypeNumber:
		return "number"
	case TypeList:
		return "list"
	case TypeCompound:
		return "compound"
	}
	return "?"
}

func parseArgType(name string) (ArgType, error) {
	switch name {
	case "any", "term":
		return TypeAny, nil
	case "atom":
		return TypeAtom, nil
	case "integer", "int":
		return TypeInteger, nil
	case "float", "real":
		return TypeFloat, nil
	case "number":
		return TypeNumber, nil
	case "list":
		return TypeList, nil
	case "compound", "structure":
		return TypeCompound, nil
	}
	return 0, fmt.Errorf("core: unknown type %q in typed/1 declaration", name)
}

// DeclareTyped records a type signature for name/arity.
func (s *Session) DeclareTyped(name string, types []ArgType) {
	if s.typed == nil {
		s.typed = map[term.Indicator][]ArgType{}
	}
	s.typed[term.Indicator{Name: name, Arity: len(types)}] = types
}

// typedDirective handles :- typed(p(atom, integer, ...)).
func (s *Session) typedDirective(spec term.Term) error {
	c, ok := spec.(*term.Compound)
	if !ok {
		return fmt.Errorf("core: typed/1 expects p(type, ...), got %s", spec)
	}
	types := make([]ArgType, len(c.Args))
	for i, a := range c.Args {
		at, ok := a.(term.Atom)
		if !ok {
			return fmt.Errorf("core: typed/1 argument %d must be a type atom", i+1)
		}
		t, err := parseArgType(string(at))
		if err != nil {
			return err
		}
		types[i] = t
	}
	s.DeclareTyped(c.Functor, types)
	return nil
}

// checkTyped validates a clause head against its declared signature.
// Variables satisfy any type (they are constrained at call time).
func (s *Session) checkTyped(head term.Term) error {
	pi := head.Indicator()
	types, ok := s.typed[pi]
	if !ok {
		return nil
	}
	args := headArgsOf(head)
	for i, a := range args {
		if i >= len(types) {
			break
		}
		if !argHasType(a, types[i]) {
			return fmt.Errorf("core: %s: argument %d (%s) violates declared type %s",
				pi, i+1, a, types[i])
		}
	}
	return nil
}

func argHasType(a term.Term, at ArgType) bool {
	if _, isVar := a.(*term.Var); isVar {
		return true
	}
	switch at {
	case TypeAny:
		return true
	case TypeAtom:
		_, ok := a.(term.Atom)
		return ok
	case TypeInteger:
		_, ok := a.(term.Int)
		return ok
	case TypeFloat:
		_, ok := a.(term.Float)
		return ok
	case TypeNumber:
		switch a.(type) {
		case term.Int, term.Float:
			return true
		}
		return false
	case TypeList:
		if a == term.NilAtom {
			return true
		}
		_, ok := term.IsCons(a)
		return ok
	case TypeCompound:
		_, ok := a.(*term.Compound)
		return ok
	}
	return false
}
