package wam

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/parser"
	"repro/internal/term"
)

// defineFacts installs a predicate whose clauses are hand-assembled.
func defineProc(m *Machine, name string, arity int, instrs []Instr) dict.ID {
	fn := m.Dict.Intern(name, arity)
	blk := m.AddBlock(&CodeBlock{Name: name, Instrs: instrs})
	m.DefineProc(&Proc{Fn: fn, Arity: arity, Block: blk})
	return fn
}

func atomCell(m *Machine, name string) Cell { return MakeCon(m.Dict.Intern(name, 0)) }

// solutions runs fn with a single fresh variable argument and returns the
// decoded bindings of every solution.
func solutions1(t *testing.T, m *Machine, fn dict.ID) []string {
	t.Helper()
	v := MakeRef(m.NewVar())
	run := m.Call(fn, []Cell{v})
	var out []string
	for {
		ok, err := run.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, m.DecodeTerm(v).String())
	}
}

func TestFactsEnumeration(t *testing.T) {
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	b := m.Dict.Intern("b", 0)
	c := m.Dict.Intern("c", 0)
	fn := defineProc(m, "p", 1, []Instr{
		{Op: OpTryMeElse, L: 3},
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
		{Op: OpRetryMeElse, L: 6},
		{Op: OpGetConstant, Fn: b, Arg: 0},
		{Op: OpProceed},
		{Op: OpTrustMe},
		{Op: OpGetConstant, Fn: c, Arg: 0},
		{Op: OpProceed},
	})
	got := solutions1(t, m, fn)
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("solutions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solution %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFactsFirstArgBound(t *testing.T) {
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	b := m.Dict.Intern("b", 0)
	fn := defineProc(m, "p", 1, []Instr{
		{Op: OpTryMeElse, L: 3},
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
		{Op: OpTrustMe},
		{Op: OpGetConstant, Fn: b, Arg: 0},
		{Op: OpProceed},
	})
	run := m.Call(fn, []Cell{atomCell(m, "b")})
	ok, err := run.Next()
	if err != nil || !ok {
		t.Fatalf("p(b) = (%v, %v)", ok, err)
	}
	ok, _ = run.Next()
	if ok {
		t.Fatal("p(b) should have exactly one solution")
	}

	m.Reset()
	run = m.Call(fn, []Cell{atomCell(m, "z")})
	ok, err = run.Next()
	if err != nil || ok {
		t.Fatalf("p(z) = (%v, %v), want failure", ok, err)
	}
}

func TestConjunctionWithEnvironment(t *testing.T) {
	// q(X) :- p(X), r(X).   with p(a), p(b) and r(b).
	m := NewMachine(nil)
	a := m.Dict.Intern("a", 0)
	b := m.Dict.Intern("b", 0)
	pFn := defineProc(m, "p", 1, []Instr{
		{Op: OpTryMeElse, L: 3},
		{Op: OpGetConstant, Fn: a, Arg: 0},
		{Op: OpProceed},
		{Op: OpTrustMe},
		{Op: OpGetConstant, Fn: b, Arg: 0},
		{Op: OpProceed},
	})
	rFn := defineProc(m, "r", 1, []Instr{
		{Op: OpGetConstant, Fn: b, Arg: 0},
		{Op: OpProceed},
	})
	_ = pFn
	qFn := defineProc(m, "q", 1, []Instr{
		{Op: OpAllocate, N: 1},
		{Op: OpGetVariableY, Reg: 0, Arg: 0},
		{Op: OpPutValueY, Reg: 0, Arg: 0},
		{Op: OpCall, Fn: pFn, Ar: 1},
		{Op: OpPutValueY, Reg: 0, Arg: 0},
		{Op: OpDeallocate},
		{Op: OpExecute, Fn: rFn, Ar: 1},
	})
	got := solutions1(t, m, qFn)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("q(X) solutions = %v, want [b]", got)
	}
}

func TestStructureUnification(t *testing.T) {
	// s(f(A, g(A))).
	m := NewMachine(nil)
	f := m.Dict.Intern("f", 2)
	g := m.Dict.Intern("g", 1)
	fn := defineProc(m, "s", 1, []Instr{
		{Op: OpGetStructure, Fn: f, Ar: 2, Arg: 0},
		{Op: OpUnifyVariableX, Reg: 1},
		{Op: OpUnifyVariableX, Reg: 2},
		{Op: OpGetStructure, Fn: g, Ar: 1, Arg: 2},
		{Op: OpUnifyValueX, Reg: 1},
		{Op: OpProceed},
	})

	parse := func(src string) Cell {
		tm, _, err := termParse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		return m.EncodeTerm(tm, map[*term.Var]Cell{})
	}

	run := m.Call(fn, []Cell{parse("f(a, g(a))")})
	if ok, err := run.Next(); err != nil || !ok {
		t.Fatalf("s(f(a,g(a))) = (%v,%v)", ok, err)
	}
	m.Reset()
	run = m.Call(fn, []Cell{parse("f(a, g(b))")})
	if ok, err := run.Next(); err != nil || ok {
		t.Fatalf("s(f(a,g(b))) = (%v,%v), want failure", ok, err)
	}
	// Mode with unbound argument: s(X) builds the structure.
	m.Reset()
	v := MakeRef(m.NewVar())
	run = m.Call(fn, []Cell{v})
	if ok, err := run.Next(); err != nil || !ok {
		t.Fatalf("s(X) = (%v,%v)", ok, err)
	}
	got := m.DecodeTerm(v).String()
	if got != "f(_G1,g(_G1))" && got != "f(_G2,g(_G2))" {
		// Variable numbering depends on heap layout; check shape.
		tm := m.DecodeTerm(v)
		c, ok := tm.(*term.Compound)
		if !ok || c.Functor != "f" || len(c.Args) != 2 {
			t.Fatalf("s(X) bound X to %v", tm)
		}
		inner, ok := c.Args[1].(*term.Compound)
		if !ok || inner.Functor != "g" || !term.Equal(c.Args[0], inner.Args[0]) {
			t.Fatalf("structure shape wrong: %v", tm)
		}
	}
}

func TestCut(t *testing.T) {
	// a(1) :- !.   a(2).
	m := NewMachine(nil)
	fn := defineProc(m, "a", 1, []Instr{
		{Op: OpTryMeElse, L: 4},
		{Op: OpGetInteger, Int: 1, Arg: 0},
		{Op: OpNeckCut},
		{Op: OpProceed},
		{Op: OpTrustMe},
		{Op: OpGetInteger, Int: 2, Arg: 0},
		{Op: OpProceed},
	})
	got := solutions1(t, m, fn)
	if len(got) != 1 || got[0] != "1" {
		t.Fatalf("a(X) with cut = %v, want [1]", got)
	}
}

func TestBuiltinCallViaWrapper(t *testing.T) {
	m := NewMachine(nil)
	isFn := m.Dict.Intern("is", 2)
	v := MakeRef(m.NewVar())
	env := map[*term.Var]Cell{}
	expr, _, err := termParse("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	run := m.Call(isFn, []Cell{v, m.EncodeTerm(expr, env)})
	ok, err := run.Next()
	if err != nil || !ok {
		t.Fatalf("is = (%v,%v)", ok, err)
	}
	if got := m.DecodeTerm(v).String(); got != "7" {
		t.Fatalf("1+2*3 = %s", got)
	}
}

func TestBetweenNondet(t *testing.T) {
	m := NewMachine(nil)
	fn := m.Dict.Intern("between", 3)
	v := MakeRef(m.NewVar())
	run := m.Call(fn, []Cell{MakeInt(1), MakeInt(4), v})
	var got []string
	for {
		ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, m.DecodeTerm(v).String())
	}
	want := []string{"1", "2", "3", "4"}
	if len(got) != len(want) {
		t.Fatalf("between solutions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solution %d = %s", i, got[i])
		}
	}
}

func TestUnifyDeepAndBacktrack(t *testing.T) {
	m := NewMachine(nil)
	env := map[*term.Var]Cell{}
	t1, _, _ := termParse("f(X, g(X, [1,2,3]))")
	t2, _, _ := termParse("f(a, g(a, [1,2,3]))")
	c1 := m.EncodeTerm(t1, env)
	c2 := m.EncodeTerm(t2, map[*term.Var]Cell{})
	if !m.Unify(c1, c2) {
		t.Fatal("terms should unify")
	}
	t3, _, _ := termParse("f(b, _)")
	c3 := m.EncodeTerm(t3, map[*term.Var]Cell{})
	if m.Unify(c1, c3) {
		t.Fatal("X already bound to a; should not unify with b")
	}
}

func TestTentativeRollback(t *testing.T) {
	m := NewMachine(nil)
	v := MakeRef(m.NewVar())
	ok := m.tentatively(func() bool { return m.Unify(v, MakeInt(42)) })
	if !ok {
		t.Fatal("unify should succeed tentatively")
	}
	if m.Deref(v).Tag() != TagRef {
		t.Fatal("binding not rolled back")
	}
}

func TestGCPreservesLiveData(t *testing.T) {
	m := NewMachine(nil)
	env := map[*term.Var]Cell{}
	// Garbage: a large dead list.
	big, _, _ := termParse("[1,2,3,4,5,6,7,8,9,10]")
	for i := 0; i < 100; i++ {
		m.EncodeTerm(big, map[*term.Var]Cell{})
	}
	// Live term in a register.
	live, _, _ := termParse("keep(f(X, [a,b|X]), 3.5)")
	c := m.EncodeTerm(live, env)
	m.SetReg(0, c)
	before := m.H()
	m.Collect(1)
	after := m.H()
	if after >= before {
		t.Fatalf("GC freed nothing: %d -> %d", before, after)
	}
	got := m.DecodeTerm(m.Reg(0))
	cg := got.(*term.Compound)
	if cg.Functor != "keep" || cg.Args[1] != term.Float(3.5) {
		t.Fatalf("live data corrupted: %v", got)
	}
}

func TestGCWithChoicePointsAndTrail(t *testing.T) {
	// Run between/3 partway, then force a GC and continue: saved H in
	// the choice point and trailed bindings must survive adjustment.
	m := NewMachine(nil)
	fn := m.Dict.Intern("between", 3)
	v := MakeRef(m.NewVar())
	run := m.Call(fn, []Cell{MakeInt(1), MakeInt(3), v})
	ok, err := run.Next()
	if err != nil || !ok {
		t.Fatal("first solution missing")
	}
	// Allocate garbage, then collect with no live registers beyond A1-A3.
	for i := 0; i < 50; i++ {
		m.EncodeTerm(term.List(term.Int(1), term.Int(2)), map[*term.Var]Cell{})
	}
	m.Collect(3)
	var got []string
	got = append(got, m.DecodeTerm(m.Reg(2)).String())
	for {
		ok, err := run.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, m.DecodeTerm(m.Reg(2)).String())
	}
	if len(got) != 3 || got[0] != "1" || got[1] != "2" || got[2] != "3" {
		t.Fatalf("solutions after GC = %v", got)
	}
}

func TestCompareCellsOrder(t *testing.T) {
	m := NewMachine(nil)
	enc := func(src string) Cell {
		tm, _, err := termParse(src)
		if err != nil {
			t.Fatal(err)
		}
		return m.EncodeTerm(tm, map[*term.Var]Cell{})
	}
	ordered := []Cell{
		MakeRef(m.NewVar()),
		enc("1.5"), enc("2"), enc("a"), enc("b"),
		enc("f(1)"), enc("f(1,2)"),
	}
	for i := range ordered {
		for j := range ordered {
			got := m.CompareCells(ordered[i], ordered[j])
			if i < j && got >= 0 || i > j && got <= 0 || i == j && got != 0 {
				t.Errorf("CompareCells(%d,%d) = %d", i, j, got)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMachine(nil)
	cases := []string{
		"foo",
		"42",
		"-17",
		"3.25",
		"[1,2,3]",
		"f(a, g(b, [x|T]), T)",
		"'quoted atom'",
	}
	for _, src := range cases {
		tm, _, err := termParse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := m.EncodeTerm(tm, map[*term.Var]Cell{})
		back := m.DecodeTerm(c)
		// Variables get fresh names; compare shape via canonical string
		// after renaming both sides consistently is overkill — just
		// compare non-var cases exactly.
		if term.IsGround(tm) && back.String() != tm.String() {
			t.Errorf("round trip %q -> %q", tm, back)
		}
	}
}

func TestIntCellRange(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 123456789, -123456789, MaxInt, MinInt} {
		c := MakeInt(v)
		if c.IntVal() != v {
			t.Errorf("MakeInt(%d).IntVal() = %d", v, c.IntVal())
		}
		if c.Tag() != TagInt {
			t.Errorf("MakeInt(%d) tag = %v", v, c.Tag())
		}
	}
	if CheckInt(MaxInt+1) || CheckInt(MinInt-1) {
		t.Error("CheckInt accepts out-of-range values")
	}
}

func TestCodeCellPacking(t *testing.T) {
	c := MakeCode(1234, 56789)
	b, o := c.CodeVal()
	if b != 1234 || o != 56789 {
		t.Fatalf("CodeVal = (%d,%d)", b, o)
	}
}

func TestFunCellPacking(t *testing.T) {
	c := MakeFun(dict.ID(98765), 12)
	if c.FunID() != 98765 || c.FunArity() != 12 {
		t.Fatalf("Fun cell = (%d,%d)", c.FunID(), c.FunArity())
	}
}

// termParse parses a single term using the reader; tests only.
func termParse(src string) (term.Term, map[string]*term.Var, error) {
	return parser.ParseTerm(src)
}

// TestRemoveBlockReclaimsWhenUnaddressed pins the machine's safe point: a
// retired block that a live frame still addresses keeps its slot through
// every sweep, and AddBlock reuses the ID only after Reset has emptied the
// stacks; retired blocks nothing addresses are reclaimed by the sweeps,
// with no Reset. Re-registering a builtin reuses its slot at once.
func TestRemoveBlockReclaimsWhenUnaddressed(t *testing.T) {
	m := NewMachine(nil)
	old := m.AddBlock(&CodeBlock{Name: "old", Instrs: []Instr{{Op: OpProceed}}})
	m.pushChoicePoint(0, codePtr{blk: old})
	m.RemoveBlock(old)
	m.RemoveBlock(old) // retiring twice must not free the slot twice
	size := m.Stats().Blocks
	for i := 0; i < 1000; i++ {
		b := m.AddBlock(&CodeBlock{Name: "churn"})
		if b.ID == old.ID {
			t.Fatalf("round %d: ID %d reused while a choice point addresses it", i, old.ID)
		}
		m.RemoveBlock(b)
	}
	if got := m.cellCode(m.stack[m.b+4]).blk; got != old {
		t.Fatalf("retired block no longer addressable from its choice point: %v", got)
	}
	if got := m.Stats().Blocks; got > size+2*minSweep {
		t.Fatalf("1000 unaddressed retirements grew the block table %d -> %d", size, got)
	}
	if len(m.retired) > minSweep {
		t.Fatalf("%d blocks still retired, want at most %d", len(m.retired), minSweep)
	}
	m.Reset()
	if len(m.retired) != 0 {
		t.Fatalf("%d blocks still retired after Reset", len(m.retired))
	}
	reused := false
	for range m.freeIDs {
		if m.AddBlock(&CodeBlock{Name: "late"}).ID == old.ID {
			reused = true
		}
	}
	if !reused {
		t.Fatalf("ID %d not reused after Reset", old.ID)
	}
	size = m.Stats().Blocks
	if b := m.AddBlock(&CodeBlock{Name: "next"}); b.ID != size {
		t.Fatalf("with no free slot AddBlock gave ID %d, want %d", b.ID, size)
	}

	fn := func(*Machine, []Cell) (bool, error) { return true, nil }
	idx := m.RegisterBuiltin(Builtin{Name: "$cursor", Arity: 2, Fn: fn})
	st := m.Stats()
	if again := m.RegisterBuiltin(Builtin{Name: "$cursor", Arity: 2, Fn: fn}); again != idx {
		t.Fatalf("re-registered builtin moved from slot %d to %d", idx, again)
	}
	if now := m.Stats(); now.Builtins != st.Builtins || now.Blocks != st.Blocks {
		t.Fatalf("re-registering grew the tables: builtins %d -> %d, blocks %d -> %d",
			st.Builtins, now.Builtins, st.Blocks, now.Blocks)
	}
	if m.BuiltinIndex("$cursor", 2) != idx || m.BuiltinIndex("$cursor", 3) != -1 {
		t.Fatal("BuiltinIndex disagrees with RegisterBuiltin")
	}
}
