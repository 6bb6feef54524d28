package wam

import (
	"fmt"

	"repro/internal/term"
)

// ErrBall is a Prolog exception in flight (thrown by throw/1, caught by
// catch/3). Engine errors that are not balls abort the query.
type ErrBall struct {
	// Term is the thrown ball, copied out of the heap so it survives the
	// state unwinding that delivery performs.
	Term term.Term
}

func (e *ErrBall) Error() string { return "wam: uncaught exception: " + e.Term.String() }

// registerCatchBuiltins installs catch/3 and throw/1.
//
// catch(Goal, Catcher, Recovery) pushes a catch-marker choice point whose
// redo always fails (so ordinary backtracking passes through it
// transparently) and records Catcher/Recovery as symbolic terms in the
// marker's out-of-band state. Goal returns through $catch_exit, which binds
// the marker's exit cell: a marker whose goal has exited is passed over,
// and backtracking into the goal undoes the binding and so re-arms it.
// throw(Ball) surfaces as an *ErrBall, which the run loop hands to
// deliverBall.
func registerCatchBuiltins(m *Machine) {
	// The frame catch/3 pushes holds the exit cell in Y0 and catch/3's own
	// continuation.
	m.catchExit = m.AddBlock(&CodeBlock{Name: "$catch_exit", Instrs: []Instr{
		{Op: OpPutValueY, Reg: 0, Arg: 0},
		{Op: OpGetConstant, Arg: 0, Fn: m.nilID()},
		{Op: OpDeallocate},
		{Op: OpProceed},
	}})
	m.RegisterBuiltin(Builtin{Name: "throw", Arity: 1, Fn: func(m *Machine, a []Cell) (bool, error) {
		d := m.Deref(a[0])
		if d.Tag() == TagRef {
			return false, fmt.Errorf("wam: throw/1: unbound ball")
		}
		return false, &ErrBall{Term: m.DecodeTerm(d)}
	}})
	m.RegisterBuiltin(Builtin{Name: "catch", Arity: 3, Fn: func(m *Machine, a []Cell) (bool, error) {
		// Decode catcher and recovery together so variables they share
		// stay shared when re-encoded at delivery time.
		addr := m.PushHeap(MakeFun(m.Dict.Intern("$catch_pair", 2), 2))
		m.PushHeap(a[1])
		m.PushHeap(a[2])
		pairT, varAddrs := m.DecodeTermVars(MakeStr(addr))
		pair := pairT.(*term.Compound)

		exit := m.NewVar() // older than the marker, so binding it is trailed
		m.pushChoicePoint(m.numArgs, codePtr{blk: m.retryBlock, off: 0})
		m.extras = append(m.extras, extra{
			b:        m.b,
			fn:       func(*Machine) (bool, error) { return false, nil },
			catch:    true,
			catcher:  pair.Args[0],
			recovery: pair.Args[1],
			varAddrs: varAddrs,
			exit:     exit,
		})
		e := m.stackTop()
		m.ensureStack(e + envHdr + 1)
		m.stack[e], m.stack[e+1], m.stack[e+2] = MakeSmall(m.e), m.codeCell(m.cp), MakeSmall(1)
		m.stack[e+envHdr] = MakeRef(exit)
		m.e, m.cp = e, codePtr{blk: m.catchExit}
		return m.metaCall(a[0], nil)
	}})
}

// deliverBall unwinds to the nearest catch marker whose catcher unifies
// with the ball and sets up its recovery goal. caught=false means no
// marker matched (the error propagates); failed=true means delivery
// happened but the recovery call could not be established, so the caller
// should backtrack.
func (m *Machine) deliverBall(ball *ErrBall) (caught, failed bool) {
	// Read which goals have exited before the unwind undoes the bindings
	// that say so.
	for i := range m.extras {
		e := &m.extras[i]
		e.exited = e.catch && m.Deref(MakeRef(e.exit)).Tag() != TagRef
	}
	for len(m.extras) > 0 {
		e := m.extras[len(m.extras)-1]
		if !e.catch || e.exited {
			// Unwind past inner redo state: restore and discard its
			// choice point.
			m.b = e.b
			m.restoreFromChoicePoint()
			m.popChoicePoint()
			continue
		}
		// Restore the machine to the catch point; m.cp becomes the
		// continuation of the original catch/3 call.
		m.b = e.b
		m.restoreFromChoicePoint()
		m.popChoicePoint() // trims this extras entry too
		// Re-establish variable identity: the variables of catcher and
		// recovery are the very heap cells that existed when catch/3
		// ran, and the unwind has just restored that heap state.
		env := map[*term.Var]Cell{}
		for v, a := range e.varAddrs {
			env[v] = MakeRef(a)
		}
		catcher := m.EncodeTerm(e.catcher, env)
		recovery := m.EncodeTerm(e.recovery, env)
		ballCell := m.EncodeTerm(term.Rename(ball.Term), map[*term.Var]Cell{})
		if !m.Unify(catcher, ballCell) {
			continue // not for this catcher: keep unwinding outward
		}
		ok, err := m.metaCall(recovery, nil)
		if err != nil || !ok {
			m.pendingJump = nil
			return true, true
		}
		return true, false
	}
	return false, false
}

// handleBuiltinError routes an error raised in the run loop through
// exception delivery. It reports whether the loop goes on at m.p (a
// recovery goal entered, or a failed recovery backtracked); otherwise the
// run ends with the returned error (nil: no more solutions).
func (m *Machine) handleBuiltinError(err error) (bool, error) {
	err = AsBall(err)
	ball, ok := err.(*ErrBall)
	if !ok {
		return false, err
	}
	caught, failed := m.deliverBall(ball)
	if !caught {
		return false, err
	}
	if failed {
		return m.backtrack(), nil
	}
	if m.pendingJump != nil {
		m.p = *m.pendingJump
		m.pendingJump = nil
		// Entering the recovery goal is a call: reset the cut barrier
		// so a cut inside it is local (see the tail-call jump in run).
		m.b0 = m.b
	}
	return true, nil
}
