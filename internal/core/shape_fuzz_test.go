package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/term"
)

// FuzzGoalShape: for any goal text the shape scanner lifts, the reader
// reads a compound with the scanned functor and arity, the scanned
// constants at the lifted positions and variables elsewhere. Run through
// code a sibling text of the same shape linked, the text then gives the
// solutions the interpreter (RuleStorageSource) gives on a small
// knowledge base. Plain `go test` runs the seeds; explore further with
//
//	go test ./internal/core -run '^$' -fuzz FuzzGoalShape -fuzztime 15s
func FuzzGoalShape(f *testing.F) {
	const kb = `p(a, 1). p(b, 2). p(1, a). p(7, 7). p(zz, zz).
		q(a, b, c). q(1, 2, 3). q(X, X, same) :- p(X, _).
		r(X, Y) :- p(Y, X), q(_, X, _).
		s(X) :- p(X, _), X \== b.
		item(k12, g, 3, t). item(k7, h, 0, u).`
	preds := map[term.Indicator]bool{{Name: "p", Arity: 2}: true, {Name: "q", Arity: 3}: true,
		{Name: "r", Arity: 2}: true, {Name: "s", Arity: 1}: true, {Name: "item", Arity: 4}: true}
	open := func(rs RuleStorage) *Session {
		kb0, err := OpenKB(Options{RuleStorage: rs})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { kb0.Close() })
		s, err := kb0.NewSession()
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { s.Close() })
		if err := s.ConsultExternal(kb); err != nil {
			f.Fatal(err)
		}
		return s
	}
	compiled, source := open(RuleStorageCompiled), open(RuleStorageSource)
	var mu sync.Mutex // the sessions are shared by every input

	for _, seed := range []string{
		"p(a, X)", "p(X, 1)", "p( 007 ,X )", "p(X, X)", "p(zz, zz)", "q(1, B, C)",
		"q(a, a, W)", "q(_, _, _)", "r(X, a)", "r(1, Y)", "s(a)", "s(X)",
		"item(k12, G, V, Tag)", "item(k7,G,V,Tag)\n", " p(b, Y) ", "p(_A1, _)",
		"p(a, 36028797018963967)", "p(a, 36028797018963968)", "p(a,'b')", "p(a, -1)",
		"p(a, X).", "p (a, X)", "p(a, X) % c", "p(a /* c */, X)", "atom_length(abc, N)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		var g goalScan
		if !g.scan(q) {
			return
		}
		tm, _, err := parser.ParseTermWithOps(q, parser.NewOpTable())
		if err != nil {
			t.Fatalf("%q scans as %s/%d but does not read: %v", q, g.name, len(g.args), err)
		}
		c, ok := tm.(*term.Compound)
		if !ok || c.Functor != g.name || len(c.Args) != len(g.args) {
			t.Fatalf("%q scans as %s/%d, reads as %s", q, g.name, len(g.args), tm)
		}
		consts := 0
		for i, a := range g.args {
			var want term.Term
			switch a.kind {
			case 'a':
				want = term.Atom(a.text)
			case '0':
				want = term.Int(a.val)
			}
			if _, isVar := c.Args[i].(*term.Var); want == nil && !isVar || want != nil && c.Args[i] != want {
				t.Fatalf("%q: argument %d scans as %q (%c), reads as %s", q, i+1, a.text, a.kind, c.Args[i])
			}
			if want != nil {
				consts++
			}
		}
		if n := strings.Count(string(g.key), string(rune(shapeMarker))); n != consts {
			t.Fatalf("%q: key %q marks %d constants, scanned %d", q, g.key, n, consts)
		}
		if !preds[c.Indicator()] {
			return
		}

		mu.Lock()
		defer mu.Unlock()
		sibling := strings.ReplaceAll(string(g.key), string(rune(shapeMarker)), "zz")
		if _, err := compiled.QueryAll(sibling); err != nil {
			t.Fatalf("%q: %v", sibling, err)
		}
		got, err := compiled.QueryAll(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if sh := compiled.queries[q].queryShape; sh != compiled.queries[sibling].queryShape || sh.key == "" {
			t.Fatalf("%q does not run the shape %q linked", q, sibling)
		}
		want, err := source.QueryAll(q)
		if err != nil {
			t.Fatalf("%q, interpreter: %v", q, err)
		}
		if g, w := renderSolutions(got), renderSolutions(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%q: compiled %v, interpreter %v", q, g, w)
		}
	})
}
