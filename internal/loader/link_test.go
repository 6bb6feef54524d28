package loader

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// compileProc compiles src, which defines the one procedure pi.
func compileProc(t *testing.T, src string, pi term.Indicator) []compiler.ClauseCode {
	t.Helper()
	terms, err := parser.New(src).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	c := compiler.New(compiler.Options{})
	var out []compiler.ClauseCode
	for _, tm := range terms {
		ccs, err := c.CompileClause(tm)
		if err != nil {
			t.Fatal(err)
		}
		for _, cc := range ccs {
			if cc.Pred != pi {
				t.Fatalf("%s compiles to %s", tm, cc.Pred)
			}
			out = append(out, cc)
		}
	}
	return out
}

type linkCase struct {
	name      string
	src       string
	pi        term.Indicator
	indexable bool
	goals     map[string][]string // goal -> bindings of V
}

// linkCases are procedures whose blocks BuildBlock must size in one
// allocation, with their answers (as linked before the block was one
// array) to goals that take every dispatch path.
var linkCases = []linkCase{
	{"unindexable rule", `
		r(X, V) :- X > 0, V = pos.
		r(X, V) :- X < 0, V = neg.
	`, term.Indicator{Name: "r", Arity: 2}, false, map[string][]string{
		"r(3, V)":                           {"pos"},
		"r(-3, V)":                          {"neg"},
		"r(0, V)":                           nil,
		"(X = 1 ; X = -1 ; X = 2), r(X, V)": {"pos", "neg", "pos"},
	}},
	{"mixed keys", `
		k(a, atom1).
		k(1, int).
		k([_|_], list).
		k(f(_), str).
		k(a, atom2).
		k([x], list1).
	`, term.Indicator{Name: "k", Arity: 2}, true, map[string][]string{
		"k(a, V)":    {"atom1", "atom2"},
		"k(1, V)":    {"int"},
		"k(2, V)":    nil,
		"k(b, V)":    nil,
		"k([x], V)":  {"list", "list1"},
		"k([y], V)":  {"list"},
		"k([], V)":   nil,
		"k(f(z), V)": {"str"},
		"k(g(z), V)": nil,
		"k(K, V)":    {"atom1", "int", "list", "str", "atom2", "list1"},
	}},
}

// TestBuildBlockOneArray: a linked block's instructions are one array no
// larger than the bound BuildBlock sizes it by, the linked procedure
// answers as before, and the shared clause code it was copied from is
// left as it was.
func TestBuildBlockOneArray(t *testing.T) {
	for _, c := range linkCases {
		t.Run(c.name, func(t *testing.T) {
			ccs := compileProc(t, c.src, c.pi)
			orig := make([][]wam.Instr, len(ccs))
			bound := len(ccs)
			for i, cc := range ccs {
				orig[i] = slices.Clone(cc.Instrs)
				bound += len(cc.Instrs)
			}
			if c.indexable {
				bound += 3 + len(ccs)
			}
			m := wam.NewMachine(nil)
			proc, err := LinkPredicate(m, c.pi.Name, c.pi.Arity, ccs, DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			ins := proc.Block.Instrs
			if len(ins) > cap(ins) || cap(ins) > bound {
				t.Errorf("block of %d instructions in an array of %d, bound %d", len(ins), cap(ins), bound)
			}
			if switched := ins[0].Op == wam.OpSwitchOnTerm; switched != c.indexable {
				t.Errorf("switch_on_term at 0: %v, want %v", switched, c.indexable)
			}
			for i, cc := range ccs {
				if !reflect.DeepEqual(cc.Instrs, orig[i]) {
					t.Errorf("clause %d's shared code was written:\n got %v\nwant %v", i, cc.Instrs, orig[i])
				}
			}
			for goal, want := range c.goals {
				if got := bindings(t, m, goal, "V"); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: V = %v, want %v", goal, got, want)
				}
			}
		})
	}
}

// TestBuildBlockAllocations pins what one link allocates: the label, the
// instruction array, the clause entry offsets and the block, and for an
// indexed procedure the one array its switch tables are cut from.
func TestBuildBlockAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
	}{{"unindexable rule", 4}, {"mixed keys", 5}} {
		lc := linkCases[slices.IndexFunc(linkCases, func(lc linkCase) bool { return lc.name == c.name })]
		ccs := compileProc(t, lc.src, lc.pi)
		m := wam.NewMachine(nil)
		build := func() {
			if _, err := BuildBlock(m, lc.pi.Name, lc.pi.Arity, ccs, DefaultOptions); err != nil {
				t.Fatal(err)
			}
		}
		build() // interns the symbols
		if n := testing.AllocsPerRun(100, build); n != c.want {
			t.Errorf("%s: BuildBlock allocates %v times, want %v", c.name, n, c.want)
		}
	}
}
