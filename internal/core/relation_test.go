package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rel"
)

// Catalog relations are found by the trap at their call, in both
// evaluators and in every session, with nothing registered ahead of it.

var edgeSchema = rel.Schema{Name: "edge", Attrs: []rel.Attr{
	{Name: "src", Type: rel.String}, {Name: "dst", Type: rel.String},
}}

// createEdges creates relation edge (indexed on src) through s and
// inserts pairs, a source atom then a destination atom each.
func createEdges(t *testing.T, s *Session, pairs ...string) {
	t.Helper()
	r, err := s.CreateRelation(edgeSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateIndex("src"); err != nil {
		t.Fatal(err)
	}
	var ts []rel.Tuple
	for i := 0; i < len(pairs); i += 2 {
		ts = append(ts, rel.Tuple{rel.StringV(pairs[i]), rel.StringV(pairs[i+1])})
	}
	if err := s.InsertTuples("edge", ts); err != nil {
		t.Fatal(err)
	}
}

func openSession(t *testing.T, kb *KnowledgeBase, rs RuleStorage) *Session {
	t.Helper()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.SetRuleStorage(rs); err != nil {
		t.Fatal(err)
	}
	return s
}

func openKB(t *testing.T) *KnowledgeBase {
	t.Helper()
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	return kb
}

var modes = []RuleStorage{RuleStorageCompiled, RuleStorageSource}

// TestStrategyDifferentialRelation: a recursive stored rule over a catalog
// relation with an index answers the same solution set under every
// strategy, bound and free; the tuple strategy reaches the relation
// through the trap, the set strategy as a fixpoint leaf.
func TestStrategyDifferentialRelation(t *testing.T) {
	kb := openKB(t)
	seed := openSession(t, kb, RuleStorageCompiled)
	createEdges(t, seed, "a", "b", "b", "c", "c", "d", "b", "e", "e", "d")
	if err := seed.ConsultExternal(`
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`); err != nil {
		t.Fatal(err)
	}
	queries := []string{"path(X, Y)", "path(a, X)", "path(X, d)", "path(b, d)", "path(a, zzz)", "edge(b, X)"}
	diffStrategies(t, kb, queries)
	for _, q := range queries {
		auto := strategySession(t, kb, StrategyAuto)
		tup := strategySession(t, kb, StrategyTuple)
		if got, want := solutionSet(t, auto, q), solutionSet(t, tup, q); !reflect.DeepEqual(got, want) {
			t.Errorf("query %s: auto strategy %v, tuple strategy %v", q, got, want)
		}
		auto.Close()
		tup.Close()
	}
	if got := solutionSet(t, seed, "path(a, X)"); len(got) != 4 {
		t.Errorf("path(a, X) = %v, want b, c, d, e", got)
	}
}

// TestDifferentialRelation: the same rule, stored or consulted, answers
// the same over the same relation in both rule-storage modes.
func TestDifferentialRelation(t *testing.T) {
	const rules = `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
		reach(X, L) :- findall(Y, path(X, Y), L0), sort(L0, L).
	`
	for _, external := range []bool{true, false} {
		var want map[string][]string
		for _, rs := range modes {
			s := openSession(t, openKB(t), rs)
			createEdges(t, s, "a", "b", "b", "c", "c", "d", "b", "e", "e", "d")
			consult := s.Consult
			if external {
				consult = s.ConsultExternal
			}
			if err := consult(rules); err != nil {
				t.Fatal(err)
			}
			got := map[string][]string{}
			for _, q := range []string{"path(X, Y)", "path(a, X)", "path(X, d)", "edge(b, X)", "reach(a, L)"} {
				got[q] = solutionSet(t, s, q)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("external=%v: source mode %v, compiled mode %v", external, got, want)
			}
		}
	}
}

// TestTxnRolledBackRelationIsGone: a relation created and called inside a
// transaction that rolls back is gone at the next call, which raises
// existence_error, in both modes: it reads neither the freed pages nor,
// once another relation reuses them, that relation's tuples. One created
// again under the name is found.
func TestTxnRolledBackRelationIsGone(t *testing.T) {
	for _, rs := range modes {
		s := openSession(t, openKB(t), rs)
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		createEdges(t, s, "a", "b")
		if got := values(t, s, "edge(a, X)", "X"); !reflect.DeepEqual(got, []string{"b"}) {
			t.Fatalf("mode %d: in-txn edge(a, X) = %v", rs, got)
		}
		if err := s.Rollback(); err != nil {
			t.Fatal(err)
		}
		const gone = "catch(edge(X, Y), error(existence_error(procedure, edge/2), _), E = gone)"
		if got := values(t, s, gone, "E"); !reflect.DeepEqual(got, []string{"gone"}) {
			t.Fatalf("mode %d: after rollback %s = %v", rs, gone, got)
		}
		other := edgeSchema
		other.Name = "other"
		if _, err := s.CreateRelation(other); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertTuples("other", []rel.Tuple{{rel.StringV("x"), rel.StringV("y")}}); err != nil {
			t.Fatal(err)
		}
		if got := values(t, s, gone, "E"); !reflect.DeepEqual(got, []string{"gone"}) {
			t.Fatalf("mode %d: with other's tuples on the pages, %s = %v", rs, gone, got)
		}
		createEdges(t, s, "c", "d")
		if got := values(t, s, "edge(X, Y)", "X"); !reflect.DeepEqual(got, []string{"c"}) {
			t.Fatalf("mode %d: recreated edge(X, Y) = %v", rs, got)
		}
	}
}

// TestRelationFoundByEverySession: a session opened before the relation
// existed calls it with no setup, in both modes.
func TestRelationFoundByEverySession(t *testing.T) {
	kb := openKB(t)
	early := []*Session{openSession(t, kb, RuleStorageCompiled), openSession(t, kb, RuleStorageSource)}
	createEdges(t, openSession(t, kb, RuleStorageCompiled), "a", "b", "a", "c", "b", "c")
	for _, s := range early {
		if got := values(t, s, "edge(a, X)", "X"); !reflect.DeepEqual(got, []string{"b", "c"}) {
			t.Fatalf("mode %d: edge(a, X) = %v", s.RuleStorage(), got)
		}
	}
}

// TestAbolishRelationFoundAgain: abolish/1 removes only session code, so
// a relation is found again at its next call, in both modes.
func TestAbolishRelationFoundAgain(t *testing.T) {
	for _, rs := range modes {
		s := openSession(t, openKB(t), rs)
		createEdges(t, s, "a", "b")
		for _, q := range []string{"edge(a, X)", "abolish(edge/2), edge(a, X)", "edge(a, X)"} {
			if got := values(t, s, q, "X"); !reflect.DeepEqual(got, []string{"b"}) {
				t.Fatalf("mode %d: %s = %v", rs, q, got)
			}
		}
	}
}

// TestStoredProcedureShadowsRelation: the procedures table comes before
// the catalog, so a procedure stored under the relation's indicator
// answers from the next call on, in the writing session and in one that
// had the relation's procedure installed.
func TestStoredProcedureShadowsRelation(t *testing.T) {
	for _, rs := range modes {
		kb := openKB(t)
		writer, reader := openSession(t, kb, rs), openSession(t, kb, rs)
		createEdges(t, writer, "a", "b")
		for _, s := range []*Session{writer, reader} {
			if got := values(t, s, "edge(X, _)", "X"); !reflect.DeepEqual(got, []string{"a"}) {
				t.Fatalf("mode %d: edge(X, _) = %v", rs, got)
			}
		}
		if err := writer.ConsultExternal("edge(x, y)."); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{writer, reader} {
			if got := values(t, s, "edge(X, _)", "X"); !reflect.DeepEqual(got, []string{"x"}) {
				t.Fatalf("mode %d: after the stored edge/2, edge(X, _) = %v", rs, got)
			}
		}
	}
}

// TestRelationReadersWithInsertingWriter runs readers in both modes that
// call a relation, by index and by scan, while a writer inserts into it:
// every index call finds its one tuple, and each reader's count never
// falls and stays within what was inserted.
func TestRelationReadersWithInsertingWriter(t *testing.T) {
	const initial, batches, batch = 50, 20, 5
	kb := openKB(t)
	w := openSession(t, kb, RuleStorageCompiled)
	var pairs []string
	for i := 0; i < initial; i++ {
		pairs = append(pairs, fmt.Sprintf("n%d", i), "v")
	}
	createEdges(t, w, pairs...)
	var readers []*Session
	for i := 0; i < 4; i++ {
		readers = append(readers, openSession(t, kb, modes[i%2]))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(readers)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			var ts []rel.Tuple
			for i := 0; i < batch; i++ {
				ts = append(ts, rel.Tuple{rel.StringV(fmt.Sprintf("n%d", initial+b*batch+i)), rel.StringV("v")})
			}
			if err := w.InsertTuples("edge", ts); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *Session) {
			defer wg.Done()
			last := 0
			for k := 0; k < 30; k++ {
				n, err := r.QueryCount("edge(_, v)")
				if err == nil && (n < last || n < initial || n > initial+batches*batch) {
					err = fmt.Errorf("count %d after %d", n, last)
				}
				if err == nil {
					var hits int
					hits, err = r.QueryCount(fmt.Sprintf("edge(n%d, v)", (i*7+k)%initial))
					if err == nil && hits != 1 {
						err = fmt.Errorf("index call found %d tuples", hits)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d (mode %d): %w", i, r.RuleStorage(), err)
					return
				}
				last = n
			}
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRelationCallInternsOnlyAnswers: a call filters on its bound
// arguments before unifying, by index or by the residual filter, so the
// tuples it passes over never reach the session's dictionary.
func TestRelationCallInternsOnlyAnswers(t *testing.T) {
	s := openSession(t, openKB(t), RuleStorageCompiled)
	var pairs []string
	for i := 0; i < 200; i++ {
		pairs = append(pairs, fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i))
	}
	createEdges(t, s, pairs...)
	for _, c := range []struct{ q, v, want string }{{"edge(s7, Y)", "Y", "d7"}, {"edge(X, d7)", "X", "s7"}} {
		live := s.Machine().Dict.Stats().Live
		if got := values(t, s, c.q, c.v); !reflect.DeepEqual(got, []string{c.want}) {
			t.Fatalf("%s = %v", c.q, got)
		}
		if grown := s.Machine().Dict.Stats().Live - live; grown > 10 {
			t.Errorf("%s interned %d atoms", c.q, grown)
		}
	}
}
