package compiler

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/term"
	"repro/internal/wam"
)

// symID casts a symbol index into the instruction Fn field. Relocatable
// code stores symbol indices where linked code stores dictionary IDs.
func symID(i int32) dict.ID { return dict.ID(i) }

// clauseCtx carries the state of one clause compilation.
type clauseCtx struct {
	u *unit

	// levelVar is the pseudo-variable holding the clause's cut barrier;
	// it becomes a permanent variable when needLevel is set.
	levelVar  *term.Var
	needLevel bool

	occ      map[*term.Var]int
	perm     map[*term.Var]int
	temp     map[*term.Var]int
	seen     map[*term.Var]bool
	nextTemp int
	levelY   int
	envSize  int
	env      bool
}

func (ctx *clauseCtx) sym(kind SymKind, name string, arity int) int32 {
	u, s := ctx.u, Symbol{Kind: kind, Name: name, Arity: arity}
	if i, ok := u.symIdx[s]; ok {
		return int32(i)
	}
	i := len(u.syms)
	u.syms = append(u.syms, s)
	u.symIdx[s] = i
	return int32(i)
}

func (ctx *clauseCtx) emit(i wam.Instr) { ctx.u.code = append(ctx.u.code, i) }

func (ctx *clauseCtx) isTransparent(g bgoal) bool {
	if g.kind != gCall {
		return true // cuts and fail never end a chunk
	}
	pi := g.t.Indicator()
	if g.local > 0 || pi.Name == "call" {
		return false // local procedures and call/N set the cut barrier via a real call
	}
	return DefaultTransparent(pi.Name, pi.Arity)
}

// headArgs returns the argument list of a clause head.
func headArgs(head term.Term) []term.Term {
	if c, ok := head.(*term.Compound); ok {
		return c.Args
	}
	return nil
}

// goalArgs returns the argument list of a callable goal.
func goalArgs(g term.Term) []term.Term {
	if c, ok := g.(*term.Compound); ok {
		return c.Args
	}
	return nil
}

// emitClause generates code for one transformed clause and returns its
// number of distinct variables.
func (ctx *clauseCtx) emitClause(head term.Term, goals []bgoal) int {
	hargs := headArgs(head)

	// Occurrence counting (variables in the head and in call goals).
	ctx.occ = map[*term.Var]int{}
	var countVars func(t term.Term)
	countVars = func(t term.Term) {
		switch x := t.(type) {
		case *term.Var:
			ctx.occ[x]++
		case *term.Compound:
			for _, a := range x.Args {
				countVars(a)
			}
		}
	}
	for _, a := range hargs {
		countVars(a)
	}
	for _, g := range goals {
		if g.kind == gCall {
			countVars(g.t)
		}
		if g.kind == gCutTo {
			ctx.occ[g.cutVar]++
		}
	}

	// Chunk assignment: chunk 0 is the head plus goals up to and
	// including the first real call; each further real call ends a chunk.
	chunkOf := map[*term.Var][2]int{} // min, max chunk
	note := func(v *term.Var, chunk int) {
		if r, ok := chunkOf[v]; ok {
			if chunk < r[0] {
				r[0] = chunk
			}
			if chunk > r[1] {
				r[1] = chunk
			}
			chunkOf[v] = r
		} else {
			chunkOf[v] = [2]int{chunk, chunk}
		}
	}
	noteTerm := func(t term.Term, chunk int) {
		for _, v := range term.Variables(t) {
			note(v, chunk)
		}
	}
	for _, a := range hargs {
		noteTerm(a, 0)
	}
	chunk := 0
	realCalls := 0
	cutAfterCall := false
	lastRealCall := -1
	for gi, g := range goals {
		switch g.kind {
		case gCall:
			noteTerm(g.t, chunk)
			if !ctx.isTransparent(g) {
				realCalls++
				lastRealCall = gi
				chunk++
			}
		case gCut:
			if realCalls > 0 {
				cutAfterCall = true
			}
		case gCutTo:
			note(g.cutVar, chunk)
		}
	}
	if cutAfterCall {
		ctx.needLevel = true
	}
	lco := len(goals) > 0 && lastRealCall == len(goals)-1

	// Permanent variables: occur in more than one chunk.
	ctx.perm = map[*term.Var]int{}
	ctx.temp = map[*term.Var]int{}
	ctx.seen = map[*term.Var]bool{}
	ySlots := 0
	// Deterministic order: walk head then goals, assigning on first sight.
	assignPerm := func(t term.Term) {
		for _, v := range term.Variables(t) {
			if _, ok := ctx.perm[v]; ok {
				continue
			}
			if r := chunkOf[v]; r[0] != r[1] {
				ctx.perm[v] = ySlots
				ySlots++
			}
		}
	}
	for _, a := range hargs {
		assignPerm(a)
	}
	for _, g := range goals {
		if g.kind == gCall {
			assignPerm(g.t)
		}
	}
	if ctx.needLevel {
		ctx.levelY = ySlots
		ySlots++
		ctx.perm[ctx.levelVar] = ctx.levelY
		ctx.seen[ctx.levelVar] = true
	}
	ctx.envSize = ySlots
	ctx.env = ySlots > 0 || realCalls >= 2 || (realCalls == 1 && !lco)

	// Temporary register numbering starts above every argument register
	// used by the head or any goal.
	maxA := len(hargs)
	for _, g := range goals {
		if g.kind == gCall {
			if n := g.t.Indicator().Arity; n > maxA {
				maxA = n
			}
		}
	}
	ctx.nextTemp = maxA

	// --- prologue ---
	if ctx.env {
		ctx.emit(wam.Instr{Op: wam.OpAllocate, N: int32(ctx.envSize)})
	}
	if ctx.needLevel {
		ctx.emit(wam.Instr{Op: wam.OpGetLevel, Reg: int32(ctx.levelY)})
	}

	// --- head ---
	for i, a := range hargs {
		ctx.emitGetArg(a, i)
	}

	// --- body ---
	terminated := false
	for gi, g := range goals {
		switch g.kind {
		case gFail:
			ctx.emit(wam.Instr{Op: wam.OpFail})
			terminated = true
		case gCut:
			if ctx.needLevel {
				ctx.emit(wam.Instr{Op: wam.OpCutY, Reg: int32(ctx.levelY)})
			} else {
				ctx.emit(wam.Instr{Op: wam.OpNeckCut})
			}
		case gCutTo:
			ctx.emitCutTo(g.cutVar)
		case gCall:
			pi := g.t.Indicator()
			args := goalArgs(g.t)
			for i, a := range args {
				ctx.emitPutArg(a, i)
			}
			if ctx.isTransparent(g) {
				ctx.emit(wam.Instr{
					Op: wam.OpBuiltin,
					Fn: symID(ctx.sym(SymBuiltin, pi.Name, pi.Arity)),
					Ar: int32(pi.Arity),
				})
				continue
			}
			call := wam.Instr{Op: wam.OpCall, Ar: int32(pi.Arity), N: int32(ctx.envSize)}
			if gi == lastRealCall && lco {
				if ctx.env {
					ctx.emit(wam.Instr{Op: wam.OpDeallocate})
				}
				call.Op, call.N = wam.OpExecute, 0
				terminated = true
			}
			if g.local > 0 {
				// L holds the local procedure's number until the unit is
				// laid out.
				call.Op, call.L = wam.OpCallLocal, int32(g.local-1)
				if terminated {
					call.Op = wam.OpExecuteLocal
				}
			} else {
				call.Fn = symID(ctx.sym(SymPred, pi.Name, pi.Arity))
			}
			ctx.emit(call)
		}
		if terminated {
			break
		}
	}
	if !terminated {
		if ctx.env {
			ctx.emit(wam.Instr{Op: wam.OpDeallocate})
		}
		ctx.emit(wam.Instr{Op: wam.OpProceed})
	}

	return len(chunkOf)
}

func (ctx *clauseCtx) emitCutTo(v *term.Var) {
	if y, ok := ctx.perm[v]; ok {
		ctx.emit(wam.Instr{Op: wam.OpCutY, Reg: int32(y)})
		return
	}
	if x, ok := ctx.temp[v]; ok {
		ctx.emit(wam.Instr{Op: wam.OpCutX, Reg: int32(x)})
		return
	}
	// Barrier variable never initialised — compile error guard.
	panic(fmt.Sprintf("compiler: cut barrier %s has no register", v.Name))
}

func (ctx *clauseCtx) newTemp() int {
	t := ctx.nextTemp
	ctx.nextTemp++
	return t
}

// emitGetArg compiles head argument matching for argument register ai.
func (ctx *clauseCtx) emitGetArg(a term.Term, ai int) {
	switch x := a.(type) {
	case *term.Var:
		if ctx.seen[x] {
			ctx.emitGetValue(x, ai)
			return
		}
		if ctx.occ[x] == 1 {
			return // void: matches anything
		}
		ctx.seen[x] = true
		if y, ok := ctx.perm[x]; ok {
			ctx.emit(wam.Instr{Op: wam.OpGetVariableY, Reg: int32(y), Arg: int32(ai)})
		} else {
			home := ctx.newTemp()
			ctx.temp[x] = home
			ctx.emit(wam.Instr{Op: wam.OpGetVariableX, Reg: int32(home), Arg: int32(ai)})
		}
	case term.Atom:
		if x == term.NilAtom {
			ctx.emit(wam.Instr{Op: wam.OpGetNil, Arg: int32(ai)})
		} else {
			ctx.emit(wam.Instr{Op: wam.OpGetConstant, Fn: symID(ctx.sym(SymAtom, string(x), 0)), Arg: int32(ai)})
		}
	case term.Int:
		ctx.emit(wam.Instr{Op: wam.OpGetInteger, Int: int64(x), Arg: int32(ai)})
	case term.Float:
		ctx.emit(wam.Instr{Op: wam.OpGetFloat, Flt: float64(x), Arg: int32(ai)})
	case *term.Compound:
		ctx.emitGetCompound(x, ai)
	}
}

func (ctx *clauseCtx) emitGetValue(v *term.Var, ai int) {
	if y, ok := ctx.perm[v]; ok {
		ctx.emit(wam.Instr{Op: wam.OpGetValueY, Reg: int32(y), Arg: int32(ai)})
	} else {
		ctx.emit(wam.Instr{Op: wam.OpGetValueX, Reg: int32(ctx.temp[v]), Arg: int32(ai)})
	}
}

// emitGetCompound matches a structure or list in head position, breadth
// first: nested compounds are captured in fresh temporaries and processed
// afterwards.
func (ctx *clauseCtx) emitGetCompound(c *term.Compound, reg int) {
	queue := []pendingStruct{{reg: reg, t: c}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if cc, ok := term.IsCons(p.t); ok {
			ctx.emit(wam.Instr{Op: wam.OpGetList, Arg: int32(p.reg)})
			queue = ctx.emitUnifyArgs(cc.Args, queue)
			continue
		}
		ctx.emit(wam.Instr{
			Op:  wam.OpGetStructure,
			Fn:  symID(ctx.sym(SymFunctor, p.t.Functor, len(p.t.Args))),
			Ar:  int32(len(p.t.Args)),
			Arg: int32(p.reg),
		})
		queue = ctx.emitUnifyArgs(p.t.Args, queue)
	}
}

type pendingStruct struct {
	reg int
	t   *term.Compound
}

// emitUnifyArgs emits unify instructions for the children of a structure
// being matched, queueing nested compounds.
func (ctx *clauseCtx) emitUnifyArgs(args []term.Term, queue []pendingStruct) []pendingStruct {
	voidRun := 0
	flush := func() {
		if voidRun > 0 {
			ctx.emit(wam.Instr{Op: wam.OpUnifyVoid, N: int32(voidRun)})
			voidRun = 0
		}
	}
	for _, a := range args {
		switch x := a.(type) {
		case *term.Var:
			if ctx.seen[x] {
				flush()
				if y, ok := ctx.perm[x]; ok {
					ctx.emit(wam.Instr{Op: wam.OpUnifyValueY, Reg: int32(y)})
				} else {
					ctx.emit(wam.Instr{Op: wam.OpUnifyValueX, Reg: int32(ctx.temp[x])})
				}
				continue
			}
			if ctx.occ[x] == 1 {
				voidRun++
				continue
			}
			flush()
			ctx.seen[x] = true
			if y, ok := ctx.perm[x]; ok {
				ctx.emit(wam.Instr{Op: wam.OpUnifyVariableY, Reg: int32(y)})
			} else {
				home := ctx.newTemp()
				ctx.temp[x] = home
				ctx.emit(wam.Instr{Op: wam.OpUnifyVariableX, Reg: int32(home)})
			}
		case term.Atom:
			flush()
			if x == term.NilAtom {
				ctx.emit(wam.Instr{Op: wam.OpUnifyNil})
			} else {
				ctx.emit(wam.Instr{Op: wam.OpUnifyConstant, Fn: symID(ctx.sym(SymAtom, string(x), 0))})
			}
		case term.Int:
			flush()
			ctx.emit(wam.Instr{Op: wam.OpUnifyInteger, Int: int64(x)})
		case term.Float:
			flush()
			ctx.emit(wam.Instr{Op: wam.OpUnifyFloat, Flt: float64(x)})
		case *term.Compound:
			flush()
			tmp := ctx.newTemp()
			ctx.emit(wam.Instr{Op: wam.OpUnifyVariableX, Reg: int32(tmp)})
			queue = append(queue, pendingStruct{reg: tmp, t: x})
		}
	}
	flush()
	return queue
}

// emitPutArg loads goal argument a into argument register ai.
func (ctx *clauseCtx) emitPutArg(a term.Term, ai int) {
	switch x := a.(type) {
	case *term.Var:
		if !ctx.seen[x] && ctx.occ[x] == 1 {
			tmp := ctx.newTemp()
			ctx.emit(wam.Instr{Op: wam.OpPutVariableX, Reg: int32(tmp), Arg: int32(ai)})
			return
		}
		if ctx.seen[x] {
			if y, ok := ctx.perm[x]; ok {
				ctx.emit(wam.Instr{Op: wam.OpPutValueY, Reg: int32(y), Arg: int32(ai)})
			} else {
				ctx.emit(wam.Instr{Op: wam.OpPutValueX, Reg: int32(ctx.temp[x]), Arg: int32(ai)})
			}
			return
		}
		ctx.seen[x] = true
		if y, ok := ctx.perm[x]; ok {
			ctx.emit(wam.Instr{Op: wam.OpPutVariableY, Reg: int32(y), Arg: int32(ai)})
		} else {
			home := ctx.newTemp()
			ctx.temp[x] = home
			ctx.emit(wam.Instr{Op: wam.OpPutVariableX, Reg: int32(home), Arg: int32(ai)})
		}
	case term.Atom:
		if x == term.NilAtom {
			ctx.emit(wam.Instr{Op: wam.OpPutNil, Arg: int32(ai)})
		} else {
			ctx.emit(wam.Instr{Op: wam.OpPutConstant, Fn: symID(ctx.sym(SymAtom, string(x), 0)), Arg: int32(ai)})
		}
	case term.Int:
		ctx.emit(wam.Instr{Op: wam.OpPutInteger, Int: int64(x), Arg: int32(ai)})
	case term.Float:
		ctx.emit(wam.Instr{Op: wam.OpPutFloat, Flt: float64(x), Arg: int32(ai)})
	case *term.Compound:
		ctx.buildCompound(x, int32(ai))
	}
}

// buildCompound writes a structure bottom-up into register target.
func (ctx *clauseCtx) buildCompound(c *term.Compound, target int32) {
	// Pre-build nested compound children into temporaries.
	childReg := map[int]int{}
	for i, a := range c.Args {
		if cc, ok := a.(*term.Compound); ok {
			tmp := ctx.newTemp()
			ctx.buildCompound(cc, int32(tmp))
			childReg[i] = tmp
		}
	}
	if _, isCons := term.IsCons(c); isCons {
		ctx.emit(wam.Instr{Op: wam.OpPutList, Arg: target})
	} else {
		ctx.emit(wam.Instr{
			Op:  wam.OpPutStructure,
			Fn:  symID(ctx.sym(SymFunctor, c.Functor, len(c.Args))),
			Ar:  int32(len(c.Args)),
			Arg: target,
		})
	}
	for i, a := range c.Args {
		switch x := a.(type) {
		case *term.Var:
			if !ctx.seen[x] && ctx.occ[x] == 1 {
				ctx.emit(wam.Instr{Op: wam.OpUnifyVoid, N: 1})
				continue
			}
			if ctx.seen[x] {
				if y, ok := ctx.perm[x]; ok {
					ctx.emit(wam.Instr{Op: wam.OpUnifyValueY, Reg: int32(y)})
				} else {
					ctx.emit(wam.Instr{Op: wam.OpUnifyValueX, Reg: int32(ctx.temp[x])})
				}
				continue
			}
			ctx.seen[x] = true
			if y, ok := ctx.perm[x]; ok {
				ctx.emit(wam.Instr{Op: wam.OpUnifyVariableY, Reg: int32(y)})
			} else {
				home := ctx.newTemp()
				ctx.temp[x] = home
				ctx.emit(wam.Instr{Op: wam.OpUnifyVariableX, Reg: int32(home)})
			}
		case term.Atom:
			if x == term.NilAtom {
				ctx.emit(wam.Instr{Op: wam.OpUnifyNil})
			} else {
				ctx.emit(wam.Instr{Op: wam.OpUnifyConstant, Fn: symID(ctx.sym(SymAtom, string(x), 0))})
			}
		case term.Int:
			ctx.emit(wam.Instr{Op: wam.OpUnifyInteger, Int: int64(x)})
		case term.Float:
			ctx.emit(wam.Instr{Op: wam.OpUnifyFloat, Flt: float64(x)})
		case *term.Compound:
			ctx.emit(wam.Instr{Op: wam.OpUnifyValueX, Reg: int32(childReg[i])})
		}
	}
}

// indexKey extracts the first-argument index key of a clause head.
func indexKey(hargs []term.Term) IndexKey {
	if len(hargs) == 0 {
		return IndexKey{Kind: KeyVar}
	}
	switch x := hargs[0].(type) {
	case term.Atom:
		return IndexKey{Kind: KeyCon, Name: string(x)}
	case term.Int:
		return IndexKey{Kind: KeyInt, Int: int64(x)}
	case term.Float:
		return IndexKey{Kind: KeyFlt}
	case *term.Compound:
		if _, ok := term.IsCons(x); ok {
			return IndexKey{Kind: KeyLis}
		}
		return IndexKey{Kind: KeyStr, Name: x.Functor, Arity: len(x.Args)}
	default:
		return IndexKey{Kind: KeyVar}
	}
}
