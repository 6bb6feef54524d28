// Package compiler translates Prolog clauses into WAM code.
//
// The compiler emits *relocatable* code (paper §3.1): every atom, functor
// and predicate reference in the instruction stream is a symbolic index
// into a per-clause symbol table rather than an internal dictionary
// identifier. The dynamic loader (package loader) resolves these
// associative addresses against a machine's dictionary and splices in the
// control and indexing code that makes a set of clauses runnable. This
// split is what allows compiled code to be stored persistently in the EDB:
// internal dictionary IDs are session-local, symbol tables are not.
//
// Control constructs (;/2, ->/2, \+/1) are compiled by lifting them into
// auxiliary predicates that receive the enclosing clause's cut barrier as
// a hidden first argument, so cut behaves correctly inside disjunctions
// and if-then-else while remaining local inside \+ and call/1.
package compiler

import (
	"fmt"

	"repro/internal/term"
	"repro/internal/wam"
)

// SymKind distinguishes symbol roles in relocatable code.
type SymKind uint8

// Symbol kinds.
const (
	// SymAtom is an atom constant (arity 0 entry in the dictionary).
	SymAtom SymKind = iota
	// SymFunctor names a structure functor.
	SymFunctor
	// SymPred names a call target.
	SymPred
	// SymBuiltin names an inline builtin.
	SymBuiltin
)

// Symbol is one associative address in relocatable code.
type Symbol struct {
	Kind  SymKind
	Name  string
	Arity int
}

// KeyKind classifies a clause's first head argument for indexing
// (paper §3.2.2: indexing on type and value).
type KeyKind uint8

// First-argument key kinds.
const (
	// KeyVar: the first argument is a variable (the clause matches any
	// query) or the predicate has arity 0.
	KeyVar KeyKind = iota
	// KeyCon: an atom constant.
	KeyCon
	// KeyInt: an integer constant.
	KeyInt
	// KeyFlt: a float constant (indexed by type only).
	KeyFlt
	// KeyLis: a list cell.
	KeyLis
	// KeyStr: a structure; Name/Arity identify the functor.
	KeyStr
)

// IndexKey is the first-argument index key of a clause.
type IndexKey struct {
	Kind  KeyKind
	Name  string
	Arity int
	Int   int64
}

// ClauseCode is the relocatable compilation of one clause.
type ClauseCode struct {
	// Pred is the predicate the clause belongs to.
	Pred term.Indicator
	// Key is the first-argument index key.
	Key IndexKey
	// Instrs is the code; all Fn fields are indices into Symbols.
	Instrs []wam.Instr
	// Symbols is the associative address table.
	Symbols []Symbol
	// NVars is the number of distinct variables (diagnostics).
	NVars int
}

// Options configures a Compiler.
type Options struct {
	// Transparent reports whether name/arity is a deterministic builtin
	// that may be emitted inline (OpBuiltin) without ending a chunk.
	// Nondeterministic or control builtins must return false so they are
	// compiled as real calls. When nil, a conservative default set is
	// used.
	Transparent func(name string, arity int) bool
}

// Compiler compiles clauses. One Compiler should be used per program unit
// so auxiliary predicate names stay unique.
type Compiler struct {
	transparent func(string, int) bool
	auxCount    int
}

// New returns a Compiler.
func New(opts Options) *Compiler {
	t := opts.Transparent
	if t == nil {
		t = DefaultTransparent
	}
	return &Compiler{transparent: t}
}

// DefaultTransparent is the default inline-builtin set: deterministic
// builtins that never create choice points and never truncate the heap,
// so they are safe to execute mid-chunk.
func DefaultTransparent(name string, arity int) bool {
	switch name {
	case "true", "fail", "false", "nl":
		return arity == 0
	case "var", "nonvar", "atom", "number", "integer", "float",
		"atomic", "compound", "callable", "is_list", "ground",
		"write", "print", "tab", "$findall_start":
		return arity == 1
	case "=", "\\=", "==", "\\==", "@<", "@>", "@=<", "@>=",
		"is", "=:=", "=\\=", "<", ">", "=<", ">=", "succ",
		"=..", "copy_term", "atom_codes", "atom_chars", "char_code",
		"atom_length", "number_codes", "atom_number",
		"sort", "msort", "keysort", "$findall_add", "$findall_collect":
		return arity == 2
	case "compare", "plus", "functor", "arg":
		return arity == 3
	}
	return false
}

// CompileClause compiles one clause term (either `Head :- Body` or a fact).
// It returns the clause's code first, followed by the code of any auxiliary
// predicates synthesised for control constructs.
func (c *Compiler) CompileClause(t term.Term) ([]ClauseCode, error) {
	head, body, err := splitClause(t)
	if err != nil {
		return nil, err
	}
	return c.compile(head, body)
}

// CompileQuery compiles `?- Body` into a predicate name/arity over the
// given variables (in order), plus auxiliary clauses.
func (c *Compiler) CompileQuery(name string, vars []*term.Var, body term.Term) ([]ClauseCode, error) {
	args := make([]term.Term, len(vars))
	for i, v := range vars {
		args[i] = v
	}
	return c.compile(term.New(name, args...), body)
}

func splitClause(t term.Term) (head, body term.Term, err error) {
	if cmp, ok := t.(*term.Compound); ok && cmp.Functor == ":-" && len(cmp.Args) == 2 {
		return cmp.Args[0], cmp.Args[1], nil
	}
	switch t.(type) {
	case term.Atom, *term.Compound:
		return t, term.TrueAtom, nil
	}
	return nil, nil, fmt.Errorf("compiler: %s is not a valid clause head", t)
}

func (c *Compiler) freshAux(parent term.Indicator) string {
	c.auxCount++
	return fmt.Sprintf("$aux_%s_%d_%d", parent.Name, parent.Arity, c.auxCount)
}

// goalKind classifies a transformed body goal.
type goalKind uint8

const (
	gCall goalKind = iota
	gCut           // clause-level cut
	gCutTo
	gFail
)

type bgoal struct {
	kind   goalKind
	t      term.Term // callable for gCall
	cutVar *term.Var // barrier for gCutTo
}

// compile compiles one clause after control transformation.
func (c *Compiler) compile(head, body term.Term) ([]ClauseCode, error) {
	pred := head.Indicator()
	if pred.Name == "" {
		return nil, fmt.Errorf("compiler: clause head must be callable, got %s", head)
	}
	ctx := &clauseCtx{
		c:        c,
		pred:     pred,
		symIdx:   map[Symbol]int{},
		levelVar: &term.Var{Name: "$Level"},
	}
	goals, auxTerms, err := ctx.transformBody(body, nil)
	if err != nil {
		return nil, err
	}
	code, err := ctx.emitClause(head, goals)
	if err != nil {
		return nil, err
	}
	out := []ClauseCode{code}
	for _, at := range auxTerms {
		sub, err := c.CompileClause(at)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// transformBody flattens conjunctions and lifts control constructs into
// auxiliary predicates. barrier is the cut target inside a lifted
// construct (nil at clause level).
func (ctx *clauseCtx) transformBody(body term.Term, barrier *term.Var) ([]bgoal, []term.Term, error) {
	var goals []bgoal
	var aux []term.Term
	var walk func(t term.Term) error
	walk = func(t term.Term) error {
		switch g := t.(type) {
		case *term.Var:
			goals = append(goals, bgoal{kind: gCall, t: term.Comp("call", g)})
			return nil
		case term.Atom:
			switch g {
			case "true":
				return nil
			case "fail", "false":
				goals = append(goals, bgoal{kind: gFail})
				return nil
			case "!":
				if barrier == nil {
					goals = append(goals, bgoal{kind: gCut})
				} else {
					goals = append(goals, bgoal{kind: gCutTo, cutVar: barrier})
				}
				return nil
			}
			goals = append(goals, bgoal{kind: gCall, t: g})
			return nil
		case term.Int, term.Float:
			return fmt.Errorf("compiler: number %s is not a callable goal", g)
		case *term.Compound:
			switch {
			case g.Functor == "," && len(g.Args) == 2:
				if err := walk(g.Args[0]); err != nil {
					return err
				}
				return walk(g.Args[1])
			case g.Functor == "$cut_to" && len(g.Args) == 1:
				v, ok := g.Args[0].(*term.Var)
				if !ok {
					return fmt.Errorf("compiler: malformed $cut_to")
				}
				goals = append(goals, bgoal{kind: gCutTo, cutVar: v})
				return nil
			case g.Functor == ";" && len(g.Args) == 2:
				gs, as, err := ctx.liftDisjunction(g, barrier)
				if err != nil {
					return err
				}
				goals = append(goals, gs)
				aux = append(aux, as...)
				return nil
			case g.Functor == "->" && len(g.Args) == 2:
				ite := term.Comp(";", g, term.Atom("fail"))
				gs, as, err := ctx.liftDisjunction(ite, barrier)
				if err != nil {
					return err
				}
				goals = append(goals, gs)
				aux = append(aux, as...)
				return nil
			case (g.Functor == "\\+" || g.Functor == "not") && len(g.Args) == 1:
				gs, as := ctx.liftNegation(g.Args[0])
				goals = append(goals, gs)
				aux = append(aux, as...)
				return nil
			}
			goals = append(goals, bgoal{kind: gCall, t: g})
			return nil
		}
		return fmt.Errorf("compiler: cannot compile goal %v", t)
	}
	if err := walk(body); err != nil {
		return nil, nil, err
	}
	return goals, aux, nil
}

// liftDisjunction compiles (A;B) — where A may be (C->T) — into an
// auxiliary predicate receiving the cut barrier and the construct's
// variables.
func (ctx *clauseCtx) liftDisjunction(d *term.Compound, barrier *term.Var) (bgoal, []term.Term, error) {
	bar := barrier
	if bar == nil {
		bar = ctx.levelVar
		ctx.needLevel = true
	}
	vars := term.Variables(d)
	name := ctx.c.freshAux(ctx.pred)
	headArgs := make([]term.Term, 0, len(vars)+1)
	headArgs = append(headArgs, bar)
	for _, v := range vars {
		if v != bar {
			headArgs = append(headArgs, v)
		}
	}
	head := term.New(name, headArgs...)

	a, b := d.Args[0], d.Args[1]
	var clauses []term.Term
	if ite, ok := a.(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
		cond, then := ite.Args[0], ite.Args[1]
		c1 := term.Comp(":-", head, conj(cond, term.Atom("!"), replaceCut(then, bar)))
		c2 := term.Comp(":-", head, replaceCut(b, bar))
		clauses = []term.Term{c1, c2}
	} else {
		c1 := term.Comp(":-", head, replaceCut(a, bar))
		c2 := term.Comp(":-", head, replaceCut(b, bar))
		clauses = []term.Term{c1, c2}
	}
	return bgoal{kind: gCall, t: head}, clauses, nil
}

// liftNegation compiles \+ G into an auxiliary predicate with a local cut.
func (ctx *clauseCtx) liftNegation(g term.Term) (bgoal, []term.Term) {
	vars := term.Variables(g)
	name := ctx.c.freshAux(ctx.pred)
	args := make([]term.Term, len(vars))
	for i, v := range vars {
		args[i] = v
	}
	head := term.New(name, args...)
	c1 := term.Comp(":-", head, conj(g, term.Atom("!"), term.Atom("fail")))
	var c2 term.Term
	if len(args) == 0 {
		c2 = head
	} else {
		fresh := make([]term.Term, len(args))
		for i := range fresh {
			fresh[i] = &term.Var{Name: fmt.Sprintf("_N%d", i)}
		}
		c2 = term.New(name, fresh...)
	}
	return bgoal{kind: gCall, t: head}, []term.Term{c1, c2}
}

func conj(gs ...term.Term) term.Term {
	t := gs[len(gs)-1]
	for i := len(gs) - 2; i >= 0; i-- {
		t = term.Comp(",", gs[i], t)
	}
	return t
}

// replaceCut substitutes '!' with '$cut_to'(bar) in t, without descending
// into constructs where cut is local: \+/1, not/1, call/N, and the
// condition of ->/2.
func replaceCut(t term.Term, bar *term.Var) term.Term {
	switch g := t.(type) {
	case term.Atom:
		if g == "!" {
			return term.Comp("$cut_to", bar)
		}
		return g
	case *term.Compound:
		switch {
		case g.Functor == "," && len(g.Args) == 2:
			return term.Comp(",", replaceCut(g.Args[0], bar), replaceCut(g.Args[1], bar))
		case g.Functor == ";" && len(g.Args) == 2:
			return term.Comp(";", replaceCut(g.Args[0], bar), replaceCut(g.Args[1], bar))
		case g.Functor == "->" && len(g.Args) == 2:
			// Cut is local inside the condition.
			return term.Comp("->", g.Args[0], replaceCut(g.Args[1], bar))
		}
		return g
	default:
		return t
	}
}
