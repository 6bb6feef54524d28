package wam

// OpClass groups opcodes into the execution classes the cost breakdowns
// report: the paper's §3.2.1 discussion of reference behaviour (choice
// point vs data references) needs per-class counts, not a flat
// instruction total.
type OpClass uint8

// Opcode classes.
const (
	ClassGet     OpClass = iota // head matching (get_*)
	ClassPut                    // argument loading (put_*)
	ClassUnify                  // structure unification (unify_*)
	ClassControl                // allocate/call/execute/proceed/jump/...
	ClassChoice                 // choice-point management (try/retry/trust)
	ClassIndex                  // first-argument indexing (switch_on_*)
	ClassCut                    // cut instructions
	ClassBuiltin                // builtin invocations
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	"get", "put", "unify", "control", "choice", "index", "cut", "builtin",
}

func (c OpClass) String() string {
	if c >= NumOpClasses {
		return "unknown"
	}
	return opClassNames[c]
}

// opClassOf maps each opcode to its class (index by Op).
var opClassOf [256]OpClass

func init() {
	set := func(c OpClass, ops ...Op) {
		for _, o := range ops {
			opClassOf[o] = c
		}
	}
	set(ClassGet, OpGetVariableX, OpGetVariableY, OpGetValueX, OpGetValueY,
		OpGetConstant, OpGetInteger, OpGetFloat, OpGetNil, OpGetStructure, OpGetList)
	set(ClassPut, OpPutVariableX, OpPutVariableY, OpPutValueX, OpPutValueY,
		OpPutConstant, OpPutInteger, OpPutFloat, OpPutNil, OpPutStructure, OpPutList)
	set(ClassUnify, OpUnifyVariableX, OpUnifyVariableY, OpUnifyValueX, OpUnifyValueY,
		OpUnifyConstant, OpUnifyInteger, OpUnifyFloat, OpUnifyNil, OpUnifyVoid)
	set(ClassControl, OpNop, OpAllocate, OpDeallocate, OpCall, OpExecute,
		OpProceed, OpHalt, OpJump, OpFail, OpCallLocal, OpExecuteLocal)
	set(ClassChoice, OpTryMeElse, OpRetryMeElse, OpTrustMe, OpTry, OpRetry,
		OpTrust, OpRetryBuiltin)
	set(ClassIndex, OpSwitchOnTerm, OpSwitchOnConstant, OpSwitchOnStructure)
	set(ClassCut, OpNeckCut, OpGetLevel, OpCutY, OpCutX)
	set(ClassBuiltin, OpBuiltin)
}

// noteSwitchDispatch classifies the landing site of an indexing dispatch.
// When the switch jumps straight into clause code — not a try chain, a
// further switch, or fail — first-argument indexing selected a single
// candidate and the choice point a naive try chain would have pushed was
// elided (the §3.2.2 benefit the ablation benchmarks measure).
func (m *Machine) noteSwitchDispatch() {
	if m.p.blk == nil || m.p.off >= len(m.p.blk.Instrs) {
		return
	}
	switch m.p.blk.Instrs[m.p.off].Op {
	case OpTry, OpTryMeElse, OpSwitchOnTerm, OpSwitchOnConstant, OpSwitchOnStructure, OpFail:
		return
	}
	m.stats.ChoicePointsElided++
}
