package compiler

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

func compile(t *testing.T, src string) []ClauseCode {
	t.Helper()
	tm, _, err := parser.ParseTerm(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c := New(Options{})
	ccs, err := c.CompileClause(tm)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return ccs
}

func ops(cc ClauseCode) []wam.Op {
	out := make([]wam.Op, len(cc.Instrs))
	for i, ins := range cc.Instrs {
		out[i] = ins.Op
	}
	return out
}

func hasOp(cc ClauseCode, op wam.Op) bool {
	for _, ins := range cc.Instrs {
		if ins.Op == op {
			return true
		}
	}
	return false
}

func TestFactCompilation(t *testing.T) {
	ccs := compile(t, "p(a, 1, 2.5, [], X)")
	if len(ccs) != 1 {
		t.Fatalf("fact compiled to %d units", len(ccs))
	}
	cc := ccs[0]
	want := []wam.Op{
		wam.OpGetConstant, wam.OpGetInteger, wam.OpGetFloat, wam.OpGetNil,
		wam.OpProceed, // the singleton variable argument needs no code
	}
	got := ops(cc)
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestChainRuleUsesExecute(t *testing.T) {
	cc := compile(t, "p(X) :- q(X)")[0]
	if hasOp(cc, wam.OpAllocate) {
		t.Error("chain rule should not allocate an environment")
	}
	if !hasOp(cc, wam.OpExecute) {
		t.Error("last call should compile to execute (LCO)")
	}
	if hasOp(cc, wam.OpCall) {
		t.Error("single-goal body should have no call instruction")
	}
}

func TestConjunctionNeedsEnvironment(t *testing.T) {
	cc := compile(t, "p(X) :- q(X), r(X)")[0]
	if !hasOp(cc, wam.OpAllocate) || !hasOp(cc, wam.OpDeallocate) {
		t.Error("two-call body needs an environment")
	}
	if !hasOp(cc, wam.OpCall) || !hasOp(cc, wam.OpExecute) {
		t.Error("expected call then execute")
	}
	// X spans both chunks: it must live in a Y register.
	if !hasOp(cc, wam.OpGetVariableY) {
		t.Error("shared variable should be permanent")
	}
}

func TestNeckCut(t *testing.T) {
	cc := compile(t, "p(X) :- X > 0, !")[0]
	if !hasOp(cc, wam.OpNeckCut) {
		t.Errorf("leading cut should compile to neck_cut: %v", ops(cc))
	}
	if hasOp(cc, wam.OpGetLevel) {
		t.Error("no saved level needed without preceding calls")
	}
}

func TestDeepCutUsesLevel(t *testing.T) {
	cc := compile(t, "p :- q, !, r")[0]
	if !hasOp(cc, wam.OpGetLevel) || !hasOp(cc, wam.OpCutY) {
		t.Errorf("cut after call needs get_level/cut_y: %v", ops(cc))
	}
}

func TestControlConstructsLiftAuxiliaries(t *testing.T) {
	ccs := compile(t, "p(X) :- q(X), ( X > 0 -> r(X) ; s(X) )")
	if len(ccs) != 3 { // clause + two aux clauses
		t.Fatalf("expected 3 units, got %d", len(ccs))
	}
	aux := ccs[1].Pred
	if aux.Name[0] != '$' {
		t.Fatalf("aux predicate name %q", aux.Name)
	}
	if ccs[1].Pred != ccs[2].Pred {
		t.Fatal("aux clauses belong to different predicates")
	}
	// The barrier argument makes the aux arity >= construct vars + 1.
	if aux.Arity < 2 {
		t.Fatalf("aux arity %d", aux.Arity)
	}
}

func TestNegationAux(t *testing.T) {
	ccs := compile(t, "p(X) :- \\+ q(X)")
	if len(ccs) != 3 {
		t.Fatalf("\\+ should lift 2 aux clauses, got %d units", len(ccs))
	}
}

func TestTransparentBuiltinsInline(t *testing.T) {
	cc := compile(t, "p(X, Y) :- Y is X + 1")[0]
	if !hasOp(cc, wam.OpBuiltin) {
		t.Errorf("is/2 should inline: %v", ops(cc))
	}
	if hasOp(cc, wam.OpCall) || hasOp(cc, wam.OpExecute) {
		t.Error("inline builtin should not be a call")
	}
	// call/N must never inline: it needs a real call for its cut barrier.
	cc = compile(t, "p(G) :- call(G)")[0]
	if hasOp(cc, wam.OpBuiltin) {
		t.Error("call/1 must not inline")
	}
	if !hasOp(cc, wam.OpExecute) {
		t.Error("call/1 should compile to a real (tail) call")
	}
}

func TestIndexKeys(t *testing.T) {
	cases := []struct {
		src  string
		kind KeyKind
	}{
		{"p(a)", KeyCon},
		{"p(42)", KeyInt},
		{"p(1.5)", KeyFlt},
		{"p([1])", KeyLis},
		{"p(f(x))", KeyStr},
		{"p(X) :- q(X)", KeyVar},
		{"p", KeyVar},
	}
	for _, c := range cases {
		cc := compile(t, c.src)[0]
		if cc.Key.Kind != c.kind {
			t.Errorf("%s: key kind %d, want %d", c.src, cc.Key.Kind, c.kind)
		}
	}
	cc := compile(t, "p(f(x, y))")[0]
	if cc.Key.Name != "f" || cc.Key.Arity != 2 {
		t.Errorf("structure key = %+v", cc.Key)
	}
}

func TestSymbolTableRelocatable(t *testing.T) {
	cc := compile(t, "p(foo, bar) :- q(foo)")[0]
	// Every constant/pred reference must be a valid symbol index.
	for _, ins := range cc.Instrs {
		switch ins.Op {
		case wam.OpGetConstant, wam.OpPutConstant, wam.OpUnifyConstant,
			wam.OpGetStructure, wam.OpPutStructure,
			wam.OpCall, wam.OpExecute, wam.OpBuiltin:
			if int(ins.Fn) >= len(cc.Symbols) {
				t.Fatalf("instr %v references symbol %d of %d", ins, ins.Fn, len(cc.Symbols))
			}
		}
	}
	// foo appears twice but is one symbol.
	fooCount := 0
	for _, s := range cc.Symbols {
		if s.Name == "foo" && s.Kind == SymAtom {
			fooCount++
		}
	}
	if fooCount != 1 {
		t.Fatalf("foo interned %d times in symbol table", fooCount)
	}
}

func TestAuxNamesUniquePerCompiler(t *testing.T) {
	c := New(Options{})
	mk := func() string {
		tm, _, _ := parser.ParseTerm("p(X) :- ( X = 1 ; X = 2 )")
		ccs, err := c.CompileClause(tm)
		if err != nil {
			t.Fatal(err)
		}
		return ccs[1].Pred.Name
	}
	if a, b := mk(), mk(); a == b {
		t.Fatalf("aux names collide: %s", a)
	}
}

func TestQueryCompilation(t *testing.T) {
	c := New(Options{})
	x := &term.Var{Name: "X"}
	body, _, _ := parser.ParseTerm("q(Y), Y = X")
	// Rebind X by name so the query var list matches.
	for _, v := range term.Variables(body) {
		if v.Name == "X" {
			x = v
		}
	}
	ccs, err := c.CompileQuery("$query", []*term.Var{x}, body)
	if err != nil {
		t.Fatal(err)
	}
	if ccs[0].Pred.Name != "$query" || ccs[0].Pred.Arity != 1 {
		t.Fatalf("query pred = %v", ccs[0].Pred)
	}
}

func TestNonCallableGoalRejected(t *testing.T) {
	c := New(Options{})
	tm, _, _ := parser.ParseTerm("p :- 42")
	if _, err := c.CompileClause(tm); err == nil {
		t.Fatal("numeric goal accepted")
	}
	tm, _, _ = parser.ParseTerm("42")
	if _, err := c.CompileClause(tm); err == nil {
		t.Fatal("numeric clause head accepted")
	}
}

func TestVoidVariablesCollapse(t *testing.T) {
	cc := compile(t, "p(f(_, _, _))")[0]
	// The three voids inside the structure should merge into one
	// unify_void 3.
	for _, ins := range cc.Instrs {
		if ins.Op == wam.OpUnifyVoid && ins.N == 3 {
			return
		}
	}
	t.Fatalf("expected unify_void 3: %v", ops(cc))
}

// TestDefaultTransparentSet pins the inline-builtin set: every listed
// name/arity is in it, the same names at other arities and the control
// builtins are not, and a lookup allocates nothing.
func TestDefaultTransparentSet(t *testing.T) {
	set := map[term.Indicator]bool{}
	for _, pi := range []string{
		"true/0", "fail/0", "false/0", "nl/0",
		"var/1", "nonvar/1", "atom/1", "number/1", "integer/1", "float/1",
		"atomic/1", "compound/1", "callable/1", "is_list/1", "ground/1",
		"write/1", "print/1", "tab/1", "$findall_start/1",
		"=/2", "\\=/2", "==/2", "\\==/2", "@</2", "@>/2", "@=</2", "@>=/2",
		"is/2", "=:=/2", "=\\=/2", "</2", ">/2", "=</2", ">=/2", "succ/2",
		"=../2", "copy_term/2", "atom_codes/2", "atom_chars/2", "char_code/2",
		"atom_length/2", "number_codes/2", "atom_number/2",
		"sort/2", "msort/2", "keysort/2", "$findall_add/2", "$findall_collect/2",
		"compare/3", "plus/3", "functor/3", "arg/3",
	} {
		i := strings.LastIndexByte(pi, '/')
		set[term.Indicator{Name: pi[:i], Arity: int(pi[i+1] - '0')}] = true
	}
	if len(set) != 52 {
		t.Fatalf("pinned set has %d entries, want 52", len(set))
	}
	names := map[string]bool{"call": true, "findall": true, "catch": true, "!": true, "assert": true, "between": true}
	for pi := range set {
		names[pi.Name] = true
	}
	for name := range names {
		for arity := 0; arity <= 4; arity++ {
			pi := term.Indicator{Name: name, Arity: arity}
			if got := DefaultTransparent(name, arity); got != set[pi] {
				t.Errorf("DefaultTransparent(%s) = %v, want %v", pi, got, set[pi])
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { DefaultTransparent("atom_length", 2) }); n != 0 {
		t.Errorf("DefaultTransparent allocates %v times per call", n)
	}
}
