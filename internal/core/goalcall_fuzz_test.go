package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// FuzzGoalShape: a goal text the scanner takes as one call reads as that
// call, under the default operators and with foo a prefix operator: a
// compound with the scanned functor and arity, whose arguments are the
// direct call's atoms, integers and variables, the variables named as the
// entry names them, one per distinct name. Run as that direct call, the text
// then gives the solutions the interpreter (RuleStorageSource) gives on a
// small knowledge base read with foo a prefix operator. Plain `go test` runs
// the seeds; explore further with
//
//	go test ./internal/core -run '^$' -fuzz FuzzGoalShape -fuzztime 15s
func FuzzGoalShape(f *testing.F) {
	const kb = `:- op(700, fx, foo).
		p(a, 1). p(b, 2). p(1, a). p(7, 7). p(zz, zz).
		p(mod, 3). p(is, 4). p(dynamic, 5). p(foo, 6).
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
	fooOps := parser.NewOpTable()
	if err := fooOps.Define(700, parser.FX, "foo"); err != nil {
		f.Fatal(err)
	}
	var mu sync.Mutex // the sessions are shared by every input

	for _, seed := range []string{
		"p(a, X)", "p(X, 1)", "p( 007 ,X )", "p(X, X)", "p(zz, zz)", "q(1, B, C)",
		"q(a, a, W)", "q(_, _, _)", "r(X, a)", "r(1, Y)", "s(a)", "s(X)",
		"item(k12, G, V, Tag)", "item(k7,G,V,Tag)\n", " p(b, Y) ", "p(_A1, _)",
		"p(a, 36028797018963967)", "p(a, 36028797018963968)", "p(a,'b')", "p(a, -1)",
		"p(a, X).", "p (a, X)", "p(a, X) % c", "p(a /* c */, X)", "atom_length(abc, N)",
		"p(mod, X)", "p(is, X)", "p(dynamic, X)", "p(foo, X)", "p(X, foo)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		mu.Lock() // directCall interns into the shared session
		defer mu.Unlock()
		lq := compiled.directCall(q)
		if lq == nil {
			return
		}
		m := compiled.Machine()
		pi := term.Indicator{Name: m.Dict.Name(lq.fn), Arity: len(lq.args)}
		for _, ops := range []*parser.OpTable{parser.NewOpTable(), fooOps} {
			tm, vars, err := parser.ParseTermWithOps(q, ops)
			if err != nil {
				t.Fatalf("%q scans as %s but does not read: %v", q, pi, err)
			}
			c, ok := tm.(*term.Compound)
			if !ok || c.Indicator() != pi {
				t.Fatalf("%q scans as %s, reads as %s", q, pi, tm)
			}
			names := make([]string, 0, len(vars))
			for n := range vars {
				names = append(names, n)
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, lq.names) {
				t.Fatalf("%q: names %v, the reader's variables %v", q, lq.names, names)
			}
			for i, cell := range lq.args {
				var want term.Term
				switch cell.Tag() {
				case wam.TagCon:
					want = term.Atom(m.Dict.Name(dict.ID(cell.Val())))
				case wam.TagInt:
					want = term.Int(cell.IntVal())
				default:
					want = vars[lq.names[cell.Val()]]
				}
				if c.Args[i] != want {
					t.Fatalf("%q: argument %d is %s, reads as %s", q, i+1, want, c.Args[i])
				}
			}
		}
		if !preds[pi] {
			return
		}

		got, err := compiled.QueryAll(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if e := compiled.queries[q]; e == nil || e.proc != nil {
			t.Fatalf("%q does not run as a direct call", q)
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
