package core

import (
	"reflect"
	"testing"

	"repro/internal/rel"
	"repro/internal/wam"
)

// TestSessionBuiltinWriteAllocs: on a warm compiled session, one
// assert_external/1 query and one retract_external/1 query of the same
// stored fact allocate no more than they did when each builtin was cell
// code of its own (55 objects for the pair).
func TestSessionBuiltinWriteAllocs(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(a, 1). f(b, 2).")(t, e)
	pair := func() {
		for _, q := range []string{"assert_external(f(c, 1))", "retract_external(f(c, 1))"} {
			if n, err := e.QueryCount(q); err != nil || n != 1 {
				t.Fatalf("%s: n=%d err=%v", q, n, err)
			}
		}
	}
	pair() // links both goals
	if n := testing.AllocsPerRun(50, pair); n > 55 {
		t.Errorf("the write pair allocates %.1f times, want at most 55", n)
	}
}

// TestRollbackForgetsParsedClauses: a rollback hands the clause IDs of the
// clauses it undoes out again, so a clause stored as text after it must
// not be served as the rolled-back text parsed under the same ID, neither
// in the rest of the query nor by code linked from it, in either mode.
func TestRollbackForgetsParsedClauses(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		s := newSession(t, Options{RuleStorage: RuleStorageSource})
		consultExternal("p(0).")(t, s)
		if err := s.SetRuleStorage(rs); err != nil {
			t.Fatal(err)
		}
		sols, err := s.QueryAll("begin, assert_external(p(1)), findall(X, p(X), L1), rollback, " +
			"begin, assert_external(p(2)), findall(Y, p(Y), L2), commit")
		if err != nil {
			t.Fatalf("rule storage %d: %v", rs, err)
		}
		want := []string{"L1=[0,1];L2=[0,2];X=_V0;Y=_V1;"}
		if got := renderSolutions(sols); !reflect.DeepEqual(got, want) {
			t.Fatalf("rule storage %d: got %v, want %v", rs, got, want)
		}
		if got := values(t, s, "findall(X, p(X), L)", "L"); !reflect.DeepEqual(got, []string{"[0,2]"}) {
			t.Fatalf("rule storage %d: next query L = %v, want [[0,2]]", rs, got)
		}
	}
}

// TestPagesQuotaBoundsRelationRead: a relation's tuple stream charges the
// pages it reads to the query, so the pages quota ends a scan of a large
// relation in both evaluators.
func TestPagesQuotaBoundsRelationRead(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		s := newSession(t, Options{RuleStorage: rs})
		if _, err := s.CreateRelation(rel.Schema{Name: "big", Attrs: []rel.Attr{
			{Name: "a", Type: rel.Int}, {Name: "b", Type: rel.Int},
		}}); err != nil {
			t.Fatal(err)
		}
		ts := make([]rel.Tuple, 20000)
		for i := range ts {
			ts[i] = rel.Tuple{rel.IntV(int64(i)), rel.IntV(int64(i % 7))}
		}
		if err := s.InsertTuples("big", ts); err != nil {
			t.Fatal(err)
		}
		s.SetQuota(Quota{PagesTouched: 5})
		_, err := s.QueryAll("aggregate_all(count, big(_, _), N)")
		if wam.ResourceKind(err) != "pages" {
			t.Fatalf("rule storage %d: err = %v, want resource_error(pages)", rs, err)
		}
		if got := s.Cost().PagesTouched; got <= 5 {
			t.Fatalf("rule storage %d: %d pages charged, want more than the quota's 5", rs, got)
		}
	}
}
