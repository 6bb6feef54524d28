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
// local procedures laid out after the clause's own code, in the same code
// unit. A local procedure receives the enclosing clause's cut barrier as a
// hidden first argument, so cut behaves correctly inside disjunctions and
// if-then-else while remaining local inside \+ and call/1.
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

// Options configures a Compiler. It has no fields: a clause compiles to
// the same code whatever machine will link it.
type Options struct{}

// Compiler compiles clauses. It keeps no state between clauses: the same
// clause always compiles to the same code.
type Compiler struct{}

// New returns a Compiler.
func New(Options) *Compiler { return &Compiler{} }

// DefaultTransparent is the inline-builtin set: deterministic builtins,
// each a builtin of every machine, that never create choice points and
// never truncate the heap, so they are safe to execute mid-chunk (OpBuiltin)
// without ending a chunk. Nondeterministic and control builtins are not in
// it: they compile to real calls.
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

// CompileClause compiles one clause term (either `Head :- Body` or a fact)
// to its code unit, the one element of the returned slice.
func (c *Compiler) CompileClause(t term.Term) ([]ClauseCode, error) {
	head, body, err := splitClause(t)
	if err != nil {
		return nil, err
	}
	return c.compile(head, body)
}

// CompileQuery compiles `?- Body` into the one clause of a predicate
// name/arity over the given variables (in order).
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
	local  int       // gCall of local procedure local-1; 0: a named call
}

// unit is one clause's code unit under construction: the clause's code and
// then the local procedures lifted from its control constructs, over one
// symbol table. locals holds each local procedure's clauses (head, body)
// until it is laid out.
type unit struct {
	symIdx map[Symbol]int
	syms   []Symbol
	code   []wam.Instr
	locals [][][2]term.Term
}

// compile compiles one clause and its local procedures into one unit.
func (c *Compiler) compile(head, body term.Term) ([]ClauseCode, error) {
	pred := head.Indicator()
	if pred.Name == "" {
		return nil, fmt.Errorf("compiler: clause head must be callable, got %s", head)
	}
	u := &unit{symIdx: map[Symbol]int{}}
	nvars, err := u.clause(head, body)
	if err != nil {
		return nil, err
	}
	// Each local procedure has two clauses, chained by try_me_else and
	// trust_me; compiling them may lift further local procedures.
	var starts []int32
	for i := 0; i < len(u.locals); i++ {
		starts = append(starts, int32(len(u.code)))
		for j, cl := range u.locals[i] {
			if j == 0 {
				u.code = append(u.code, wam.Instr{Op: wam.OpTryMeElse})
			} else {
				u.code[starts[i]].L = int32(len(u.code))
				u.code = append(u.code, wam.Instr{Op: wam.OpTrustMe})
			}
			if _, err := u.clause(cl[0], cl[1]); err != nil {
				return nil, err
			}
		}
	}
	for i := range u.code {
		if op := u.code[i].Op; op == wam.OpCallLocal || op == wam.OpExecuteLocal {
			u.code[i].L = starts[u.code[i].L]
		}
	}
	return []ClauseCode{{
		Pred:    pred,
		Key:     indexKey(headArgs(head)),
		Instrs:  u.code,
		Symbols: u.syms,
		NVars:   nvars,
	}}, nil
}

// clause appends one clause's code to the unit after control
// transformation and returns its number of distinct variables.
func (u *unit) clause(head, body term.Term) (int, error) {
	ctx := &clauseCtx{u: u, levelVar: &term.Var{Name: "$Level"}}
	goals, err := ctx.transformBody(body)
	if err != nil {
		return 0, err
	}
	return ctx.emitClause(head, goals), nil
}

// transformBody flattens conjunctions and lifts control constructs into
// local procedures. A cut inside a lifted construct reaches the clause's
// own code as '$cut_to'(Barrier) (see replaceCut).
func (ctx *clauseCtx) transformBody(body term.Term) ([]bgoal, error) {
	var goals []bgoal
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
				goals = append(goals, bgoal{kind: gCut})
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
				goals = append(goals, ctx.liftDisjunction(g))
				return nil
			case g.Functor == "->" && len(g.Args) == 2:
				goals = append(goals, ctx.liftDisjunction(term.Comp(";", g, term.Atom("fail"))))
				return nil
			case (g.Functor == "\\+" || g.Functor == "not") && len(g.Args) == 1:
				goals = append(goals, ctx.liftNegation(g.Args[0]))
				return nil
			}
			goals = append(goals, bgoal{kind: gCall, t: g})
			return nil
		}
		return fmt.Errorf("compiler: cannot compile goal %v", t)
	}
	if err := walk(body); err != nil {
		return nil, err
	}
	return goals, nil
}

// addLocal queues a local procedure's clauses and returns the call goal
// that enters it with head's arguments.
func (ctx *clauseCtx) addLocal(head term.Term, clauses ...[2]term.Term) bgoal {
	ctx.u.locals = append(ctx.u.locals, clauses)
	return bgoal{kind: gCall, t: head, local: len(ctx.u.locals)}
}

// liftDisjunction compiles (A;B) — where A may be (C->T) — into a local
// procedure receiving the clause's cut barrier and the construct's
// variables.
func (ctx *clauseCtx) liftDisjunction(d *term.Compound) bgoal {
	bar := ctx.levelVar
	ctx.needLevel = true
	vars := term.Variables(d)
	headArgs := make([]term.Term, 0, len(vars)+1)
	headArgs = append(headArgs, bar)
	for _, v := range vars {
		if v != bar {
			headArgs = append(headArgs, v)
		}
	}
	head := term.New(";", headArgs...)

	a, b := d.Args[0], d.Args[1]
	if ite, ok := a.(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
		cond, then := ite.Args[0], ite.Args[1]
		a = conj(cond, term.Atom("!"), replaceCut(then, bar))
	} else {
		a = replaceCut(a, bar)
	}
	return ctx.addLocal(head, [2]term.Term{head, a}, [2]term.Term{head, replaceCut(b, bar)})
}

// liftNegation compiles \+ G into a local procedure with a local cut.
func (ctx *clauseCtx) liftNegation(g term.Term) bgoal {
	vars := term.Variables(g)
	args := make([]term.Term, len(vars))
	fresh := make([]term.Term, len(vars))
	for i, v := range vars {
		args[i] = v
		fresh[i] = &term.Var{Name: fmt.Sprintf("_N%d", i)}
	}
	head := term.New("\\+", args...)
	return ctx.addLocal(head,
		[2]term.Term{head, conj(g, term.Atom("!"), term.Atom("fail"))},
		[2]term.Term{term.New("\\+", fresh...), term.TrueAtom})
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
