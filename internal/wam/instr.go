package wam

import (
	"fmt"

	"repro/internal/dict"
)

// Op is a WAM opcode.
type Op uint8

// Instruction opcodes. X registers double as argument registers A1..An
// (X[0] is A1). Y registers index the current environment frame.
const (
	OpNop Op = iota

	// Head (get) instructions: match argument register Ai.
	OpGetVariableX // Xn := Ai
	OpGetVariableY // Yn := Ai
	OpGetValueX    // unify(Xn, Ai)
	OpGetValueY    // unify(Yn, Ai)
	OpGetConstant  // unify Ai with constant
	OpGetInteger
	OpGetFloat
	OpGetNil
	OpGetStructure // unify Ai with f(...), enter read or write mode
	OpGetList      // unify Ai with a list pair

	// Body (put) instructions: load argument register Ai.
	OpPutVariableX // fresh heap var into Xn and Ai
	OpPutVariableY // fresh heap var into Yn and Ai
	OpPutValueX    // Ai := Xn
	OpPutValueY    // Ai := Yn
	OpPutConstant
	OpPutInteger
	OpPutFloat
	OpPutNil
	OpPutStructure // begin writing f(...) into Ai
	OpPutList

	// Unify instructions (within get/put_structure, read/write mode).
	OpUnifyVariableX
	OpUnifyVariableY
	OpUnifyValueX
	OpUnifyValueY
	OpUnifyConstant
	OpUnifyInteger
	OpUnifyFloat
	OpUnifyNil
	OpUnifyVoid // N anonymous subterms

	// Control.
	OpAllocate   // push environment with N permanent variables
	OpDeallocate // pop environment
	OpCall       // call predicate Fn (dict ID); N = env size hint
	OpExecute    // tail call predicate Fn
	OpProceed    // return
	OpHalt       // stop the machine (success exit for queries)

	// Choice points.
	OpTryMeElse   // push choice point; on failure continue at L
	OpRetryMeElse // update choice point to resume at L
	OpTrustMe     // discard choice point
	OpTry         // push choice point resuming at next instr; jump to L
	OpRetry       // update choice point to next instr; jump to L
	OpTrust       // discard choice point; jump to L
	OpJump        // unconditional jump to L

	// Indexing (first argument, by type then value: paper §3.2.2).
	OpSwitchOnTerm     // L=var, A=constant, B=list, C=structure (offsets)
	OpSwitchOnConstant // Tbl maps constant cells to offsets; L = fail
	OpSwitchOnStructure

	// Cut.
	OpNeckCut  // cut to the B0 of the current call
	OpGetLevel // Yn := B0
	OpCutY     // cut to the level saved in Yn
	OpCutX     // cut to the level held in Xn (aux-predicate cut barrier)

	// Builtins.
	OpBuiltin      // invoke builtin #N with A args; deterministic or redo-based
	OpRetryBuiltin // internal: resume a nondeterministic builtin

	// Fail unconditionally.
	OpFail
)

var opNames = map[Op]string{
	OpNop:          "nop",
	OpGetVariableX: "get_variable_x", OpGetVariableY: "get_variable_y",
	OpGetValueX: "get_value_x", OpGetValueY: "get_value_y",
	OpGetConstant: "get_constant", OpGetInteger: "get_integer", OpGetFloat: "get_float",
	OpGetNil: "get_nil", OpGetStructure: "get_structure", OpGetList: "get_list",
	OpPutVariableX: "put_variable_x", OpPutVariableY: "put_variable_y",
	OpPutValueX: "put_value_x", OpPutValueY: "put_value_y",
	OpPutConstant: "put_constant", OpPutInteger: "put_integer", OpPutFloat: "put_float",
	OpPutNil: "put_nil", OpPutStructure: "put_structure", OpPutList: "put_list",
	OpUnifyVariableX: "unify_variable_x", OpUnifyVariableY: "unify_variable_y",
	OpUnifyValueX: "unify_value_x", OpUnifyValueY: "unify_value_y",
	OpUnifyConstant: "unify_constant", OpUnifyInteger: "unify_integer", OpUnifyFloat: "unify_float",
	OpUnifyNil: "unify_nil", OpUnifyVoid: "unify_void",
	OpAllocate: "allocate", OpDeallocate: "deallocate",
	OpCall: "call", OpExecute: "execute", OpProceed: "proceed", OpHalt: "halt",
	OpTryMeElse: "try_me_else", OpRetryMeElse: "retry_me_else", OpTrustMe: "trust_me",
	OpTry: "try", OpRetry: "retry", OpTrust: "trust", OpJump: "jump",
	OpSwitchOnTerm: "switch_on_term", OpSwitchOnConstant: "switch_on_constant",
	OpSwitchOnStructure: "switch_on_structure",
	OpNeckCut:           "neck_cut", OpGetLevel: "get_level", OpCutY: "cut_y", OpCutX: "cut_x",
	OpBuiltin: "builtin", OpRetryBuiltin: "retry_builtin", OpFail: "fail",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// SwitchCase is one entry of a switch_on_constant/structure table.
type SwitchCase struct {
	// Key identifies the constant: for switch_on_constant a TagCon or
	// TagInt cell (floats fall back to the default chain); for
	// switch_on_structure a TagFun cell.
	Key Cell
	// Off is the code offset to jump to.
	Off int32
}

// Instr is a single WAM instruction. Operand use depends on Op:
//
//	Reg  — X/Y register number, or argument register Ai for get/put
//	Arg  — second register (Ai) for two-register instructions
//	N    — counts: allocate size, unify_void count, builtin arg count
//	Fn   — functor/predicate dict ID (call, execute, get/put_structure)
//	Ar   — arity companion to Fn
//	Int  — integer constant
//	Flt  — float constant
//	L/A/B/C — code offsets for control and switch_on_term
//	Tbl  — switch table
type Instr struct {
	Op      Op
	Reg     int32
	Arg     int32
	N       int32
	Fn      dict.ID
	Ar      int32
	Int     int64
	Flt     float64
	L       int32
	A, B, C int32
	Tbl     []SwitchCase
}

func (i Instr) String() string {
	switch i.Op {
	case OpGetVariableX, OpGetValueX, OpPutVariableX, OpPutValueX:
		return fmt.Sprintf("%s X%d, A%d", i.Op, i.Reg, i.Arg)
	case OpGetVariableY, OpGetValueY, OpPutVariableY, OpPutValueY:
		return fmt.Sprintf("%s Y%d, A%d", i.Op, i.Reg, i.Arg)
	case OpGetConstant, OpPutConstant:
		return fmt.Sprintf("%s c%d, A%d", i.Op, i.Fn, i.Arg)
	case OpGetInteger, OpPutInteger:
		return fmt.Sprintf("%s %d, A%d", i.Op, i.Int, i.Arg)
	case OpGetFloat, OpPutFloat:
		return fmt.Sprintf("%s %g, A%d", i.Op, i.Flt, i.Arg)
	case OpGetStructure, OpPutStructure:
		return fmt.Sprintf("%s f%d/%d, A%d", i.Op, i.Fn, i.Ar, i.Arg)
	case OpGetList, OpPutList, OpGetNil, OpPutNil:
		return fmt.Sprintf("%s A%d", i.Op, i.Arg)
	case OpUnifyVariableX, OpUnifyValueX:
		return fmt.Sprintf("%s X%d", i.Op, i.Reg)
	case OpUnifyVariableY, OpUnifyValueY:
		return fmt.Sprintf("%s Y%d", i.Op, i.Reg)
	case OpUnifyConstant:
		return fmt.Sprintf("%s c%d", i.Op, i.Fn)
	case OpUnifyInteger:
		return fmt.Sprintf("%s %d", i.Op, i.Int)
	case OpUnifyFloat:
		return fmt.Sprintf("%s %g", i.Op, i.Flt)
	case OpUnifyVoid:
		return fmt.Sprintf("%s %d", i.Op, i.N)
	case OpAllocate:
		return fmt.Sprintf("%s %d", i.Op, i.N)
	case OpCall, OpExecute:
		return fmt.Sprintf("%s p%d/%d", i.Op, i.Fn, i.Ar)
	case OpTryMeElse, OpRetryMeElse, OpTry, OpRetry, OpTrust, OpJump:
		return fmt.Sprintf("%s @%d", i.Op, i.L)
	case OpSwitchOnTerm:
		return fmt.Sprintf("%s var@%d con@%d lis@%d str@%d", i.Op, i.L, i.A, i.B, i.C)
	case OpSwitchOnConstant, OpSwitchOnStructure:
		return fmt.Sprintf("%s (%d cases) else@%d", i.Op, len(i.Tbl), i.L)
	case OpGetLevel, OpCutY:
		return fmt.Sprintf("%s Y%d", i.Op, i.Reg)
	case OpCutX:
		return fmt.Sprintf("%s X%d", i.Op, i.Reg)
	case OpBuiltin:
		return fmt.Sprintf("%s #%d/%d", i.Op, i.N, i.Ar)
	default:
		return i.Op.String()
	}
}

// CodeBlock is an independently loadable unit of WAM code. Blocks are
// registered with a Machine (receiving an ID) and may later be removed,
// which is how dynamically loaded EDB procedures are discarded.
type CodeBlock struct {
	ID     int
	Instrs []Instr
	// Name is a diagnostic label (usually the predicate indicator).
	Name string
	// Owner is the functor of the predicate the block belongs to
	// (stamped by DefineProc; HasOwner distinguishes the zero ID).
	// The profiler uses it to attribute port events.
	Owner    dict.ID
	HasOwner bool
	// retired is set by Machine.RemoveBlock; reclaim frees the slot.
	retired bool
}

// Proc is an entry in the machine's procedures table (paper §4 item 1).
type Proc struct {
	// Fn is the functor ID of the predicate (name via the dictionary).
	Fn    dict.ID
	Arity int
	// Block holds the predicate's code; entry point is offset 0.
	Block *CodeBlock
	// External marks procedures whose clauses live in the EDB; calling
	// one with Block == nil triggers the machine's OnUndefined hook
	// (the paper's interpreter trap).
	External bool
	// Transient marks code loaded from the EDB for the current query,
	// subject to eviction.
	Transient bool
}
