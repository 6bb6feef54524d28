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
// construction.
package loader

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/dict"
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
	if old := m.Proc(fn); old != nil {
		proc.External = old.External
	}
	m.DefineProc(proc)
	return proc, nil
}

// BuildBlock links clauses into a code block without installing it.
func BuildBlock(m *wam.Machine, name string, arity int, clauses []compiler.ClauseCode, opts Options) (*wam.CodeBlock, error) {
	label := fmt.Sprintf("%s/%d", name, arity)
	if len(clauses) == 0 {
		return &wam.CodeBlock{Name: label, Instrs: []wam.Instr{{Op: wam.OpFail}}}, nil
	}
	resolved := make([][]wam.Instr, len(clauses))
	for i, cc := range clauses {
		ins, err := Resolve(m, cc)
		if err != nil {
			return nil, fmt.Errorf("loader: %s clause %d: %w", label, i, err)
		}
		resolved[i] = ins
	}

	if len(clauses) == 1 {
		return &wam.CodeBlock{Name: label, Instrs: resolved[0]}, nil
	}

	indexable := opts.Index && arity >= 1
	for _, cc := range clauses {
		if cc.Key.Kind == compiler.KeyVar || cc.Key.Kind == compiler.KeyFlt {
			indexable = false
			break
		}
	}

	var code []wam.Instr
	switchAt := -1
	if indexable {
		// Reserve slot 0 for switch_on_term; targets patched later.
		switchAt = 0
		code = append(code, wam.Instr{Op: wam.OpSwitchOnTerm})
	}

	// Main try_me_else chain; entries[i] is the offset of clause i's code.
	entries := make([]int32, len(clauses))
	markers := make([]int, len(clauses))
	for i, ins := range resolved {
		markers[i] = len(code)
		switch {
		case i == 0:
			code = append(code, wam.Instr{Op: wam.OpTryMeElse})
		case i == len(clauses)-1:
			code = append(code, wam.Instr{Op: wam.OpTrustMe})
		default:
			code = append(code, wam.Instr{Op: wam.OpRetryMeElse})
		}
		entries[i] = int32(len(code))
		code = append(code, ins...)
	}
	// Patch marker targets to the next marker.
	for i := 0; i < len(clauses)-1; i++ {
		code[markers[i]].L = int32(markers[i+1])
	}

	if indexable {
		conT, code2 := buildSwitch(m, code, clauses, entries, compiler.KeyCon, compiler.KeyInt)
		code = code2
		lisT, code3 := buildBucket(code, clauses, entries, compiler.KeyLis)
		code = code3
		strT, code4 := buildSwitch(m, code, clauses, entries, compiler.KeyStr, compiler.KeyStr)
		code = code4
		sw := &code[switchAt]
		sw.L = int32(markers[0]) // unbound first arg: full chain
		sw.A = conT
		sw.B = lisT
		sw.C = strT
	}
	return &wam.CodeBlock{Name: label, Instrs: code}, nil
}

// buildSwitch creates a switch_on_constant/structure dispatch for the
// clauses whose key kind is k1 or k2. It returns the offset to jump to for
// that term type (-1 = fail) and the extended code.
func buildSwitch(m *wam.Machine, code []wam.Instr, clauses []compiler.ClauseCode, entries []int32, k1, k2 compiler.KeyKind) (int32, []wam.Instr) {
	type group struct {
		key     wam.Cell
		entries []int32
	}
	var order []wam.Cell
	byKey := map[wam.Cell]*group{}
	structure := k1 == compiler.KeyStr
	for i, cc := range clauses {
		if cc.Key.Kind != k1 && cc.Key.Kind != k2 {
			continue
		}
		var key wam.Cell
		switch cc.Key.Kind {
		case compiler.KeyCon:
			key = wam.MakeCon(m.Dict.Intern(cc.Key.Name, 0))
		case compiler.KeyInt:
			key = wam.MakeInt(cc.Key.Int)
		case compiler.KeyStr:
			key = wam.MakeFun(m.Dict.Intern(cc.Key.Name, cc.Key.Arity), cc.Key.Arity)
		}
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			order = append(order, key)
		}
		g.entries = append(g.entries, entries[i])
	}
	if len(order) == 0 {
		return -1, code
	}
	swOff := int32(len(code))
	op := wam.OpSwitchOnConstant
	if structure {
		op = wam.OpSwitchOnStructure
	}
	swIdx := len(code)
	code = append(code, wam.Instr{Op: op, L: -1})
	tbl := make([]wam.SwitchCase, 0, len(order))
	for _, key := range order {
		g := byKey[key]
		var off int32
		if len(g.entries) == 1 {
			off = g.entries[0]
		} else {
			off = int32(len(code))
			code = appendChain(code, g.entries)
		}
		tbl = append(tbl, wam.SwitchCase{Key: key, Off: off})
	}
	sort.Slice(tbl, func(i, j int) bool { return tbl[i].Key < tbl[j].Key })
	code[swIdx].Tbl = tbl
	return swOff, code
}

// buildBucket creates a try/retry/trust sub-chain for clauses of kind k
// (used for list-keyed clauses). It returns the jump target (-1 = fail).
func buildBucket(code []wam.Instr, clauses []compiler.ClauseCode, entries []int32, k compiler.KeyKind) (int32, []wam.Instr) {
	var es []int32
	for i, cc := range clauses {
		if cc.Key.Kind == k {
			es = append(es, entries[i])
		}
	}
	switch len(es) {
	case 0:
		return -1, code
	case 1:
		return es[0], code
	default:
		off := int32(len(code))
		return off, appendChain(code, es)
	}
}

// appendChain emits try/retry/trust over the given clause entries.
func appendChain(code []wam.Instr, entries []int32) []wam.Instr {
	for i, e := range entries {
		switch {
		case i == 0:
			code = append(code, wam.Instr{Op: wam.OpTry, L: e})
		case i == len(entries)-1:
			code = append(code, wam.Instr{Op: wam.OpTrust, L: e})
		default:
			code = append(code, wam.Instr{Op: wam.OpRetry, L: e})
		}
	}
	return code
}

// Resolve rewrites one clause's relocatable code against m's dictionary,
// returning linked instructions. This is the loader's address-resolution
// step (associative address -> internal dictionary identifier).
func Resolve(m *wam.Machine, cc compiler.ClauseCode) ([]wam.Instr, error) {
	out := make([]wam.Instr, len(cc.Instrs))
	copy(out, cc.Instrs)
	for i := range out {
		ins := &out[i]
		switch ins.Op {
		case wam.OpGetConstant, wam.OpPutConstant, wam.OpUnifyConstant:
			s, err := symbolAt(cc, ins.Fn)
			if err != nil {
				return nil, err
			}
			ins.Fn = m.Dict.Intern(s.Name, 0)
		case wam.OpGetStructure, wam.OpPutStructure:
			s, err := symbolAt(cc, ins.Fn)
			if err != nil {
				return nil, err
			}
			ins.Fn = m.Dict.Intern(s.Name, s.Arity)
		case wam.OpCall, wam.OpExecute:
			s, err := symbolAt(cc, ins.Fn)
			if err != nil {
				return nil, err
			}
			ins.Fn = m.Dict.Intern(s.Name, s.Arity)
		case wam.OpBuiltin:
			s, err := symbolAt(cc, ins.Fn)
			if err != nil {
				return nil, err
			}
			idx := m.BuiltinIndex(s.Name, s.Arity)
			if idx < 0 {
				return nil, fmt.Errorf("unknown builtin %s/%d", s.Name, s.Arity)
			}
			ins.N = int32(idx)
			ins.Fn = 0
		}
	}
	return out, nil
}

func symbolAt(cc compiler.ClauseCode, idx dict.ID) (compiler.Symbol, error) {
	i := int(idx)
	if i < 0 || i >= len(cc.Symbols) {
		return compiler.Symbol{}, fmt.Errorf("symbol index %d out of range (have %d)", i, len(cc.Symbols))
	}
	return cc.Symbols[i], nil
}
