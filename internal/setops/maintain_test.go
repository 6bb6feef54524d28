package setops

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rel"
	"repro/internal/term"
)

// maintainShapes are the programs FuzzSetopsMaintain maintains: their
// rules and leaves (binary unless named in unary).
var maintainShapes = []struct {
	name   string
	rules  []string
	leaves []string
	unary  map[string]bool
}{
	{"linear", []string{
		"path(X, Y) :- edge(X, Y).", "path(X, Z) :- edge(X, Y), path(Y, Z).",
		"reach(Y) :- path(n0, Y).", "loop(X) :- path(X, X).",
	}, []string{"edge"}, nil},
	{"non-linear", []string{
		"path(X, Y) :- edge(X, Y).", "path(X, Z) :- path(X, Y), path(Y, Z).",
	}, []string{"edge"}, nil},
	{"same-generation", []string{
		"sg(X, X) :- node(X).", "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).",
	}, []string{"par", "node"}, map[string]bool{"node": true}},
	{"union", []string{
		"edge(X, Y) :- fwd(X, Y).", "edge(X, Y) :- alt(X, Y).",
		"path(X, Y) :- edge(X, Y).", "path(X, Z) :- edge(X, Y), path(Y, Z).",
	}, []string{"fwd", "alt"}, nil},
	{"mutual", []string{
		"odd(X, Y) :- edge(X, Y).", "odd(X, Y) :- edge(X, Z), even(Z, Y).",
		"even(X, Y) :- edge(X, Z), odd(Z, Y).",
	}, []string{"edge"}, nil},
}

// FuzzSetopsMaintain builds one of maintainShapes over random graphs
// (cycles included) and runs random batches of leaf inserts and deletes:
// after every batch the maintained totals must equal a fresh Eval as
// sets, and every column index must hold exactly the live tuples under
// each key, in slot order. data[0] picks the shape, data[1] the number of
// nodes, data[2] the batch size; each later byte is one write (high bit:
// delete the k-th tuple of the leaf, else insert; bit 6: which leaf).
func FuzzSetopsMaintain(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		b := make([]byte, 8+r.Intn(120))
		r.Read(b)
		b[0] = byte(i)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		shape := maintainShapes[int(data[0])%len(maintainShapes)]
		nodes, batch := 2+int(data[1])%7, 1+int(data[2])%4
		var rules []Rule
		for _, src := range shape.rules {
			rules = append(rules, decompile(t, src))
		}
		leaves := make([]term.Indicator, len(shape.leaves))
		model := map[term.Indicator]map[[2]int]bool{}
		for i, name := range shape.leaves {
			leaves[i] = term.Indicator{Name: name, Arity: 2}
			if shape.unary[name] {
				leaves[i].Arity = 1
			}
			model[leaves[i]] = map[[2]int]bool{}
		}
		program := func() *Program {
			p := NewProgram()
			for _, r := range rules {
				p.AddRules(r.Head.Pred, append(p.Rules[r.Head.Pred], r))
			}
			for _, pi := range leaves {
				p.AddLeaf(pi, leafOf(pi, model[pi]))
			}
			return p
		}
		p := program()
		totals, err := p.Eval(&Stats{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkIndexes(t, totals)
		for ops := data[3:]; len(ops) > 0; {
			n := min(batch, len(ops))
			changed := map[term.Indicator]*rel.MemRel{}
			for _, b := range ops[:n] {
				pi := leaves[int(b>>6&1)%len(leaves)]
				m := model[pi]
				if b&0x80 != 0 {
					if len(m) > 0 {
						delete(m, sortedPairs(m)[int(b&63)%len(m)])
					}
				} else {
					tp := [2]int{int(b&7) % nodes, int(b>>3&7) % nodes}
					if pi.Arity == 1 {
						tp[1] = 0
					}
					m[tp] = true
				}
				changed[pi] = nil
			}
			ops = ops[n:]
			for pi := range changed {
				changed[pi] = leafOf(pi, model[pi])
			}
			if err := p.Maintain(totals, changed, &Stats{}, nil); err != nil {
				t.Fatal(err)
			}
			want, err := program().Eval(&Stats{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for pred, w := range want {
				if got, exp := fmt.Sprint(solutions(totals[pred])), fmt.Sprint(solutions(w)); got != exp {
					t.Fatalf("%s, %d bytes left: maintained %v = %s, fresh %s", shape.name, len(ops), pred, got, exp)
				}
			}
			checkIndexes(t, totals)
		}
	})
}

// leafOf materializes a leaf's model tuples as node atoms n0, n1, ...
func leafOf(pi term.Indicator, m map[[2]int]bool) *rel.MemRel {
	r := rel.NewMemRel(pi.Arity)
	for _, tp := range sortedPairs(m) {
		t := rel.Tuple{rel.StringV(fmt.Sprintf("n%d", tp[0])), rel.StringV(fmt.Sprintf("n%d", tp[1]))}
		r.Insert(t[:pi.Arity])
	}
	return r
}

func sortedPairs(m map[[2]int]bool) [][2]int {
	out := make([][2]int, 0, len(m))
	for tp := range m {
		out = append(out, tp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1] })
	return out
}

// checkIndexes requires each relation's live count to match its slots and
// each column index to list, in slot order, exactly the live tuples with
// the probed value (dead positions allowed, skipped by readers).
func checkIndexes(t *testing.T, rels map[term.Indicator]*rel.MemRel) {
	t.Helper()
	for pred, r := range rels {
		tuples := r.Tuples()
		live := 0
		for _, tp := range tuples {
			if tp != nil {
				live++
			}
		}
		if live != r.Len() {
			t.Fatalf("%v: Len %d, %d live slots", pred, r.Len(), live)
		}
		for col := 0; col < pred.Arity; col++ {
			for _, tp := range tuples {
				if tp == nil {
					continue
				}
				var got, want []int
				last := -1
				for _, pos := range r.Lookup(col, tp[col]) {
					if pos <= last {
						t.Fatalf("%v column %d: positions out of order", pred, col)
					}
					last = pos
					if tuples[pos] != nil {
						got = append(got, pos)
					}
				}
				for pos, u := range tuples {
					if u != nil && rel.ValueEq(u[col], tp[col]) {
						want = append(want, pos)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v column %d key %v: index %v, live %v", pred, col, tp[col], got, want)
				}
			}
		}
	}
}
