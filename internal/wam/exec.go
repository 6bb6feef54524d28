package wam

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dict"
	"repro/internal/term"
)

// ErrNoCode is returned when the machine is resumed without a program.
var ErrNoCode = errors.New("wam: no code to execute")

// backtrack restores the newest choice point and resumes at its BP.
// It returns false when no choice point remains.
func (m *Machine) backtrack() bool {
	m.stats.Backtracks++
	if m.b < 0 {
		if m.prof != nil {
			m.prof.portFinalFail(m.p.blk)
		}
		return false
	}
	from, e := m.p.blk, m.e
	m.p = m.restoreFromChoicePoint()
	if m.prof != nil {
		m.prof.portBacktrack(from, m.p.blk)
		m.redoExited(e)
	}
	return true
}

// runLoop executes instructions until a solution (OpHalt) or exhaustion.
// It returns true when the query succeeded.
//
// Cancellation and quotas are checked once on entry — so every Next sees
// an expired deadline or an exhausted solution quota promptly, however
// few instructions separate two solutions — and then amortized every
// 256 instructions inside the loop.
func (m *Machine) runLoop() (bool, error) {
	if err := m.checkCancel(); err != nil {
		if ok, err := m.handleBuiltinError(err); !ok {
			return false, err
		}
	}
	for {
		if m.p.blk == nil {
			return false, ErrNoCode
		}
		ins := &m.p.blk.Instrs[m.p.off]
		m.stats.Instructions++
		m.stats.OpClasses[opClassOf[ins.Op]]++

		// Amortized cancellation poll: deadlines and interrupts surface
		// here as catchable balls, so even a runaway deterministic goal
		// (no calls, no builtins) is bounded.
		if m.stats.Instructions&interruptMask == 0 {
			if err := m.checkCancel(); err != nil {
				if ok, err := m.handleBuiltinError(err); !ok {
					return false, err
				}
				continue
			}
		}

		switch ins.Op {
		case OpNop:
			m.p.off++

		// --- put ---------------------------------------------------
		case OpPutVariableX:
			v := MakeRef(m.NewVar())
			m.ensureRegs(max(int(ins.Reg), int(ins.Arg)) + 1)
			m.x[ins.Reg] = v
			m.x[ins.Arg] = v
			m.p.off++
		case OpPutVariableY:
			v := MakeRef(m.NewVar())
			m.setY(int(ins.Reg), v)
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = v
			m.p.off++
		case OpPutValueX:
			m.ensureRegs(max(int(ins.Reg), int(ins.Arg)) + 1)
			m.x[ins.Arg] = m.x[ins.Reg]
			m.p.off++
		case OpPutValueY:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = m.Y(int(ins.Reg))
			m.p.off++
		case OpPutConstant:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = MakeCon(ins.Fn)
			m.p.off++
		case OpPutInteger:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = MakeInt(ins.Int)
			m.p.off++
		case OpPutFloat:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = m.PushFloat(ins.Flt)
			m.p.off++
		case OpPutNil:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = MakeCon(m.nilID())
			m.p.off++
		case OpPutStructure:
			a := m.PushHeap(MakeFun(ins.Fn, int(ins.Ar)))
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = MakeStr(a)
			m.mode = 'w'
			m.p.off++
		case OpPutList:
			m.ensureRegs(int(ins.Arg) + 1)
			m.x[ins.Arg] = MakeLis(len(m.heap))
			m.mode = 'w'
			m.p.off++

		// --- get ---------------------------------------------------
		case OpGetVariableX:
			m.ensureRegs(max(int(ins.Reg), int(ins.Arg)) + 1)
			m.x[ins.Reg] = m.x[ins.Arg]
			m.p.off++
		case OpGetVariableY:
			m.setY(int(ins.Reg), m.x[ins.Arg])
			m.p.off++
		case OpGetValueX:
			m.ensureRegs(max(int(ins.Reg), int(ins.Arg)) + 1)
			if !m.Unify(m.x[ins.Reg], m.x[ins.Arg]) {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetValueY:
			if !m.Unify(m.Y(int(ins.Reg)), m.x[ins.Arg]) {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetConstant:
			if !m.getConst(m.x[ins.Arg], MakeCon(ins.Fn)) {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetInteger:
			if !m.getConst(m.x[ins.Arg], MakeInt(ins.Int)) {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetFloat:
			d := m.Deref(m.x[ins.Arg])
			ok := false
			switch d.Tag() {
			case TagRef:
				m.bindAddr(d.Val(), m.PushFloat(ins.Flt))
				ok = true
			case TagFlt:
				ok = m.floats[d.Val()] == ins.Flt
			}
			if !ok {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetNil:
			if !m.getConst(m.x[ins.Arg], MakeCon(m.nilID())) {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off++
		case OpGetStructure:
			d := m.Deref(m.x[ins.Arg])
			switch d.Tag() {
			case TagRef:
				a := m.PushHeap(MakeFun(ins.Fn, int(ins.Ar)))
				m.bindAddr(d.Val(), MakeStr(a))
				m.mode = 'w'
				m.p.off++
			case TagStr:
				f := m.heap[d.Val()]
				if f.FunID() == ins.Fn && f.FunArity() == int(ins.Ar) {
					m.s = d.Val() + 1
					m.mode = 'r'
					m.p.off++
				} else if !m.backtrack() {
					return false, nil
				}
			default:
				if !m.backtrack() {
					return false, nil
				}
			}
		case OpGetList:
			d := m.Deref(m.x[ins.Arg])
			switch d.Tag() {
			case TagRef:
				m.bindAddr(d.Val(), MakeLis(len(m.heap)))
				m.mode = 'w'
				m.p.off++
			case TagLis:
				m.s = d.Val()
				m.mode = 'r'
				m.p.off++
			default:
				if !m.backtrack() {
					return false, nil
				}
			}

		// --- unify -------------------------------------------------
		case OpUnifyVariableX:
			if m.mode == 'r' {
				m.ensureRegs(int(ins.Reg) + 1)
				m.x[ins.Reg] = m.heap[m.s]
				m.s++
			} else {
				v := MakeRef(m.NewVar())
				m.ensureRegs(int(ins.Reg) + 1)
				m.x[ins.Reg] = v
			}
			m.p.off++
		case OpUnifyVariableY:
			if m.mode == 'r' {
				m.setY(int(ins.Reg), m.heap[m.s])
				m.s++
			} else {
				m.setY(int(ins.Reg), MakeRef(m.NewVar()))
			}
			m.p.off++
		case OpUnifyValueX:
			m.ensureRegs(int(ins.Reg) + 1)
			if m.mode == 'r' {
				if !m.Unify(m.x[ins.Reg], m.heap[m.s]) {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
				m.s++
			} else {
				m.PushHeap(m.x[ins.Reg])
			}
			m.p.off++
		case OpUnifyValueY:
			if m.mode == 'r' {
				if !m.Unify(m.Y(int(ins.Reg)), m.heap[m.s]) {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
				m.s++
			} else {
				m.PushHeap(m.Y(int(ins.Reg)))
			}
			m.p.off++
		case OpUnifyConstant:
			if m.mode == 'r' {
				c := m.heap[m.s]
				m.s++
				if !m.getConst(c, MakeCon(ins.Fn)) {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
			} else {
				m.PushHeap(MakeCon(ins.Fn))
			}
			m.p.off++
		case OpUnifyInteger:
			if m.mode == 'r' {
				c := m.heap[m.s]
				m.s++
				if !m.getConst(c, MakeInt(ins.Int)) {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
			} else {
				m.PushHeap(MakeInt(ins.Int))
			}
			m.p.off++
		case OpUnifyFloat:
			if m.mode == 'r' {
				d := m.Deref(m.heap[m.s])
				m.s++
				ok := false
				switch d.Tag() {
				case TagRef:
					m.bindAddr(d.Val(), m.PushFloat(ins.Flt))
					ok = true
				case TagFlt:
					ok = m.floats[d.Val()] == ins.Flt
				}
				if !ok {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
			} else {
				m.PushHeap(m.PushFloat(ins.Flt))
			}
			m.p.off++
		case OpUnifyNil:
			if m.mode == 'r' {
				c := m.heap[m.s]
				m.s++
				if !m.getConst(c, MakeCon(m.nilID())) {
					if !m.backtrack() {
						return false, nil
					}
					continue
				}
			} else {
				m.PushHeap(MakeCon(m.nilID()))
			}
			m.p.off++
		case OpUnifyVoid:
			if m.mode == 'r' {
				m.s += int(ins.N)
			} else {
				for i := 0; i < int(ins.N); i++ {
					m.NewVar()
				}
			}
			m.p.off++

		// --- control -----------------------------------------------
		case OpAllocate:
			base := m.stackTop()
			n := int(ins.N)
			m.ensureStack(base + envHdr + n)
			m.stack[base] = MakeSmall(m.e)
			m.stack[base+1] = m.codeCell(m.cp)
			m.stack[base+2] = MakeSmall(n)
			for i := 0; i < n; i++ {
				m.stack[base+envHdr+i] = MakeSmall(0)
			}
			m.e = base
			m.p.off++
		case OpDeallocate:
			m.cp = m.cellCode(m.stack[m.e+1])
			m.e = m.stack[m.e].SmallVal()
			m.p.off++
		case OpCall, OpExecute:
			m.stats.Calls++
			m.maybeGC(int(ins.Ar))
			proc, err := m.lookupProc(ins.Fn)
			if err != nil {
				if ok, err := m.handleBuiltinError(err); !ok {
					return false, err
				}
				continue
			}
			m.numArgs = int(ins.Ar)
			m.ensureRegs(m.numArgs)
			if ins.Op == OpCall {
				m.cp = codePtr{blk: m.p.blk, off: m.p.off + 1}
			}
			m.b0 = m.b
			if m.prof != nil {
				m.prof.portCall(ins.Fn, proc.Block)
			}
			m.p = codePtr{blk: proc.Block}
		case OpCallLocal, OpExecuteLocal:
			m.stats.Calls++
			m.maybeGC(int(ins.Ar))
			m.numArgs = int(ins.Ar)
			m.ensureRegs(m.numArgs)
			if ins.Op == OpCallLocal {
				m.cp = codePtr{blk: m.p.blk, off: m.p.off + 1}
			}
			m.b0 = m.b
			if m.prof != nil {
				m.prof.portLocal(m.p.blk)
			}
			m.p.off = int(ins.L)
		case OpProceed:
			if m.prof != nil {
				m.prof.portExit(m.p.blk, m.cp.blk)
			}
			m.p = m.cp
		case OpHalt:
			return true, nil

		// --- choice points -----------------------------------------
		case OpTryMeElse:
			m.pushChoicePoint(m.numArgs, codePtr{blk: m.p.blk, off: int(ins.L)})
			m.p.off++
		case OpRetryMeElse:
			m.setBP(codePtr{blk: m.p.blk, off: int(ins.L)})
			m.p.off++
		case OpTrustMe:
			m.popChoicePoint()
			m.p.off++
		case OpTry:
			m.pushChoicePoint(m.numArgs, codePtr{blk: m.p.blk, off: m.p.off + 1})
			m.p.off = int(ins.L)
		case OpRetry:
			m.setBP(codePtr{blk: m.p.blk, off: m.p.off + 1})
			m.p.off = int(ins.L)
		case OpTrust:
			m.popChoicePoint()
			m.p.off = int(ins.L)
		case OpJump:
			m.p.off = int(ins.L)

		// --- indexing ----------------------------------------------
		case OpSwitchOnTerm:
			var target int32
			switch m.Deref(m.x[0]).Tag() {
			case TagRef:
				target = ins.L
			case TagCon, TagInt, TagFlt:
				target = ins.A
			case TagLis:
				target = ins.B
			case TagStr:
				target = ins.C
			default:
				target = -1
			}
			if target < 0 {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off = int(target)
			m.noteSwitchDispatch()
		case OpSwitchOnConstant:
			d := m.Deref(m.x[0])
			off := switchLookup(ins.Tbl, d)
			if off < 0 {
				off = ins.L
			}
			if off < 0 {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off = int(off)
			m.noteSwitchDispatch()
		case OpSwitchOnStructure:
			d := m.Deref(m.x[0])
			var key Cell
			if d.Tag() == TagStr {
				key = m.heap[d.Val()]
			}
			off := switchLookup(ins.Tbl, key)
			if off < 0 {
				off = ins.L
			}
			if off < 0 {
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			m.p.off = int(off)
			m.noteSwitchDispatch()

		// --- cut ----------------------------------------------------
		case OpNeckCut:
			m.cutTo(m.b0)
			m.p.off++
		case OpGetLevel:
			m.setY(int(ins.Reg), MakeSmall(m.b0))
			m.p.off++
		case OpCutY:
			m.cutTo(m.Y(int(ins.Reg)).SmallVal())
			m.p.off++
		case OpCutX:
			m.cutTo(m.Deref(m.x[ins.Reg]).SmallVal())
			m.p.off++

		// --- builtins ----------------------------------------------
		case OpBuiltin:
			bi := m.builtins[ins.N]
			m.numArgs = int(ins.Ar)
			m.ensureRegs(m.numArgs)
			ok, err := bi.Fn(m, m.x[:ins.Ar])
			if err != nil {
				if ok, err := m.handleBuiltinError(err); !ok {
					return false, err
				}
				continue
			}
			if !ok {
				m.pendingJump = nil
				if !m.backtrack() {
					return false, nil
				}
				continue
			}
			if m.pendingJump != nil {
				m.p = *m.pendingJump
				m.pendingJump = nil
				// The jump is a procedure call (call/N, metacall): the
				// callee's cut barrier is the current level, so a cut
				// inside it cannot discard markers the builtin pushed
				// (catch/3's, findall's) or older choice points.
				m.b0 = m.b
			} else {
				m.p.off++
			}
		case OpRetryBuiltin:
			if len(m.extras) == 0 || m.extras[len(m.extras)-1].b != m.b {
				return false, fmt.Errorf("wam: retry_builtin without matching redo state")
			}
			e := m.extras[len(m.extras)-1]
			ok, err := e.fn(m)
			if err != nil {
				if ok, err := m.handleBuiltinError(err); !ok {
					return false, err
				}
				continue
			}
			if ok {
				m.p = e.resume
				continue
			}
			m.popChoicePoint()
			if !m.backtrack() {
				return false, nil
			}

		case OpFail:
			if !m.backtrack() {
				return false, nil
			}

		default:
			return false, fmt.Errorf("wam: unimplemented opcode %v", ins.Op)
		}
	}
}

// getConst unifies cell a with the ground constant c (TagCon or TagInt).
func (m *Machine) getConst(a, c Cell) bool {
	d := m.Deref(a)
	if d.Tag() == TagRef {
		m.bindAddr(d.Val(), c)
		return true
	}
	return d == c
}

func (m *Machine) nilID() dict.ID { return m.Dict.Intern("[]", 0) }

// AsBall converts an unknown-procedure error into the ISO existence_error
// ball so it is catchable; other errors pass through unchanged.
func AsBall(err error) error {
	if unk, ok := err.(*ErrUnknownProc); ok {
		return &ErrBall{Term: term.Comp("error",
			term.Comp("existence_error", term.Atom("procedure"),
				term.Comp("/", term.Atom(unk.Name), term.Int(int64(unk.Arity)))),
			term.Atom(unk.Name))}
	}
	return err
}

// switchLookup finds key in a table sorted by Key.
func switchLookup(tbl []SwitchCase, key Cell) int32 {
	i := sort.Search(len(tbl), func(i int) bool { return tbl[i].Key >= key })
	if i < len(tbl) && tbl[i].Key == key {
		return tbl[i].Off
	}
	return -1
}
