// Package loader is Educe*'s dynamic loader (paper §3.1): it resolves the
// associative (symbolic) addresses in relocatable clause code against a
// machine's internal dictionary, and splices in the control code — choice
// point chains and first-argument switch instructions — that turns a bag of
// clause codes into a runnable procedure.
//
// The loader is deliberately cheap: the paper observes that ~90% of
// compilation time goes to lexing/parsing/memory management and only ~10%
// to code generation, and equates loader work to (less than) that 10%.
// Linking here is a single pass over the instructions plus table
// construction, into one array per link: BuildBlock sizes the block's
// instructions before it copies the first clause in, and the shared,
// decoded clause code it copies from is never written.
package loader

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/compiler"
	"repro/internal/wam"
)

// Options configures linking.
type Options struct {
	// Index disables first-argument indexing when false (used by the
	// indexing ablation benchmark). Default true via DefaultOptions.
	Index bool
	// Transient marks the resulting procedure as dynamically loaded
	// EDB code subject to eviction.
	Transient bool
}

// DefaultOptions enables indexing.
var DefaultOptions = Options{Index: true}

// LinkPredicate resolves and installs the given clauses as the definition
// of name/arity on machine m, replacing any previous definition.
func LinkPredicate(m *wam.Machine, name string, arity int, clauses []compiler.ClauseCode, opts Options) (*wam.Proc, error) {
	blk, err := BuildBlock(m, name, arity, clauses, opts)
	if err != nil {
		return nil, err
	}
	fn := m.Dict.Intern(name, arity)
	if old := m.Proc(fn); old != nil && old.Block != nil {
		m.RemoveBlock(old.Block)
	}
	m.AddBlock(blk)
	proc := &wam.Proc{Fn: fn, Arity: arity, Block: blk, Transient: opts.Transient}
	m.DefineProc(proc)
	return proc, nil
}

// BuildBlock links clauses into a code block without installing it. The
// block's instructions are one array, sized up front: each clause's code is
// copied into it and resolved there, and the choice and switch code goes
// after; the clauses' own code is only read.
func BuildBlock(m *wam.Machine, name string, arity int, clauses []compiler.ClauseCode, opts Options) (*wam.CodeBlock, error) {
	label := name + "/" + strconv.Itoa(arity)
	if len(clauses) == 0 {
		return &wam.CodeBlock{Name: label, Instrs: []wam.Instr{{Op: wam.OpFail}}}, nil
	}
	if len(clauses) == 1 {
		code, err := resolveInto(m, make([]wam.Instr, 0, len(clauses[0].Instrs)), clauses[0])
		if err != nil {
			return nil, fmt.Errorf("loader: %s clause 0: %w", label, err)
		}
		return &wam.CodeBlock{Name: label, Instrs: code}, nil
	}
	indexable := opts.Index && arity >= 1
	size := 0
	for _, cc := range clauses {
		size += len(cc.Instrs) + 1 // its code and its try_me_else/retry_me_else/trust_me
		if cc.Key.Kind == compiler.KeyVar || cc.Key.Kind == compiler.KeyFlt {
			indexable = false
		}
	}
	if indexable {
		// switch_on_term, switch_on_constant and switch_on_structure, and at
		// most one try/retry/trust per clause in the chains they jump to.
		size += 3 + len(clauses)
	}
	code := make([]wam.Instr, 0, size)
	if indexable {
		// Slot 0 is switch_on_term; its targets are patched last.
		code = append(code, wam.Instr{Op: wam.OpSwitchOnTerm})
	}

	// Main try_me_else chain; entries[i] is the offset of clause i's code,
	// which its choice instruction precedes.
	chain := int32(len(code))
	entries := make([]int32, len(clauses))
	for i, cc := range clauses {
		if i > 0 {
			code[entries[i-1]-1].L = int32(len(code))
		}
		code = append(code, wam.Instr{Op: chainOp(i, len(clauses), wam.OpTryMeElse, wam.OpRetryMeElse, wam.OpTrustMe)})
		entries[i] = int32(len(code))
		var err error
		if code, err = resolveInto(m, code, cc); err != nil {
			return nil, fmt.Errorf("loader: %s clause %d: %w", label, i, err)
		}
	}

	if indexable {
		sw := wam.Instr{Op: wam.OpSwitchOnTerm, L: chain} // unbound first arg: full chain
		tbls := make([]wam.SwitchCase, 0, len(clauses))
		sw.A, code, tbls = dispatch(m, code, tbls, clauses, entries, compiler.KeyCon, compiler.KeyInt)
		sw.B, code, tbls = dispatch(m, code, tbls, clauses, entries, compiler.KeyLis)
		sw.C, code, _ = dispatch(m, code, tbls, clauses, entries, compiler.KeyStr)
		code[0] = sw
	}
	return &wam.CodeBlock{Name: label, Instrs: code}, nil
}

// dispatch builds the switch_on_term target for the clauses whose key kind
// is one of kinds: a switch_on_constant (atoms, integers) or
// switch_on_structure table, or for lists the one entry or chain. It
// returns the target (-1 = fail), the extended code, and what is left of
// tbls, the array every switch table of the block is cut from (a clause
// has one key, so it holds one case per clause).
func dispatch(m *wam.Machine, code []wam.Instr, tbls []wam.SwitchCase, clauses []compiler.ClauseCode, entries []int32, kinds ...compiler.KeyKind) (int32, []wam.Instr, []wam.SwitchCase) {
	cases := tbls[:0] // one per clause, then one per key
	for i, cc := range clauses {
		if !slices.Contains(kinds, cc.Key.Kind) {
			continue
		}
		var key wam.Cell // a list's is the zero cell: all in one bucket
		switch cc.Key.Kind {
		case compiler.KeyCon:
			key = wam.MakeCon(m.Dict.Intern(cc.Key.Name, 0))
		case compiler.KeyInt:
			key = wam.MakeInt(cc.Key.Int)
		case compiler.KeyStr:
			key = wam.MakeFun(m.Dict.Intern(cc.Key.Name, cc.Key.Arity), cc.Key.Arity)
		}
		cases = append(cases, wam.SwitchCase{Key: key, Off: entries[i]})
	}
	rest := cases[len(cases):]
	if len(cases) == 0 {
		return -1, code, rest
	}
	// Sorted by key for the machine's binary search; stable, so each key's
	// clauses stay in clause order.
	slices.SortStableFunc(cases, func(a, b wam.SwitchCase) int { return cmp.Compare(a.Key, b.Key) })
	swOff := int32(len(code))
	switch kinds[0] {
	case compiler.KeyCon:
		code = append(code, wam.Instr{Op: wam.OpSwitchOnConstant, L: -1})
	case compiler.KeyStr:
		code = append(code, wam.Instr{Op: wam.OpSwitchOnStructure, L: -1})
	}
	tbl := cases[:0]
	for i := 0; i < len(cases); {
		j := i + 1
		for j < len(cases) && cases[j].Key == cases[i].Key {
			j++
		}
		off := cases[i].Off
		if j-i > 1 {
			off = int32(len(code))
			for k := i; k < j; k++ {
				code = append(code, wam.Instr{Op: chainOp(k-i, j-i, wam.OpTry, wam.OpRetry, wam.OpTrust), L: cases[k].Off})
			}
		}
		tbl = append(tbl, wam.SwitchCase{Key: cases[i].Key, Off: off})
		i = j
	}
	if kinds[0] == compiler.KeyLis {
		return tbl[0].Off, code, rest
	}
	code[swOff].Tbl = slices.Clip(tbl) // the next table starts where this one ends
	return swOff, code, rest
}

// chainOp is the choice instruction of member i of an n-member chain: the
// first tries, the last trusts, the others retry.
func chainOp(i, n int, try, retry, trust wam.Op) wam.Op {
	switch i {
	case 0:
		return try
	case n - 1:
		return trust
	}
	return retry
}

// resolveInto appends one clause's relocatable code to code and resolves
// the copy in place against m's dictionary. This is the loader's
// address-resolution step (associative address -> internal dictionary
// identifier; clause-relative code offset -> block offset); cc's own code
// is shared and never written.
func resolveInto(m *wam.Machine, code []wam.Instr, cc compiler.ClauseCode) ([]wam.Instr, error) {
	base := len(code)
	code = append(code, cc.Instrs...)
	for i := base; i < len(code); i++ {
		ins := &code[i]
		switch ins.Op {
		case wam.OpGetConstant, wam.OpPutConstant, wam.OpUnifyConstant,
			wam.OpGetStructure, wam.OpPutStructure, wam.OpCall, wam.OpExecute, wam.OpBuiltin:
		default:
			if jumps(ins.Op) {
				ins.L += int32(base)
			}
			continue
		}
		if int(ins.Fn) >= len(cc.Symbols) {
			return nil, fmt.Errorf("symbol index %d out of range (have %d)", ins.Fn, len(cc.Symbols))
		}
		switch s := cc.Symbols[ins.Fn]; ins.Op {
		case wam.OpGetConstant, wam.OpPutConstant, wam.OpUnifyConstant:
			ins.Fn = m.Dict.Intern(s.Name, 0)
		case wam.OpBuiltin:
			idx := m.BuiltinIndex(s.Name, s.Arity)
			if idx < 0 {
				return nil, fmt.Errorf("unknown builtin %s/%d", s.Name, s.Arity)
			}
			ins.N, ins.Fn = int32(idx), 0
		default:
			ins.Fn = m.Dict.Intern(s.Name, s.Arity)
		}
	}
	return code, nil
}

// jumps reports whether op's L is a code offset: in relocatable code one
// relative to the clause's first instruction (the try_me_else chains and
// calls of its local procedures).
func jumps(op wam.Op) bool {
	switch op {
	case wam.OpTryMeElse, wam.OpRetryMeElse, wam.OpTry, wam.OpRetry, wam.OpTrust,
		wam.OpJump, wam.OpCallLocal, wam.OpExecuteLocal:
		return true
	}
	return false
}
