package educe_test

import (
	"path/filepath"
	"testing"

	"repro/educe"
	"repro/internal/rel"
)

// newSession opens a knowledge base with opts and one session over it;
// both are closed when the test ends.
func newSession(t *testing.T, opts educe.Options) *educe.Session {
	t.Helper()
	kb, err := educe.OpenKB(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFacadeTypesAndConstructors(t *testing.T) {
	if educe.IntV(3).I != 3 || educe.FloatV(1.5).F != 1.5 || educe.StringV("s").S != "s" {
		t.Fatal("value constructors broken")
	}
	eng := newSession(t, educe.Options{})
	if eng.RuleStorage() != educe.RuleStorageCompiled {
		t.Fatal("default storage mode should be compiled")
	}
	eng.SetRuleStorage(educe.RuleStorageSource)
	if eng.RuleStorage() != educe.RuleStorageSource {
		t.Fatal("mode switch lost")
	}
}

func TestFacadeOpenPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.edb")
	kb, err := educe.OpenKB(educe.Options{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.ConsultExternal("f(1)."); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newSession(t, educe.Options{StorePath: path})
	if n, _ := e2.QueryCount("f(1)"); n != 1 {
		t.Fatal("fact lost across sessions")
	}
}

func TestFacadeRelations(t *testing.T) {
	eng := newSession(t, educe.Options{})
	r, err := eng.CreateRelation(educe.Schema{
		Name:  "t",
		Attrs: []educe.Attr{{Name: "k", Type: educe.Int}, {Name: "v", Type: educe.String}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(educe.Tuple{educe.IntV(1), educe.StringV("one")}); err != nil {
		t.Fatal(err)
	}
	rows, err := rel.Collect(rel.SeqScan(eng.Relation("t")))
	if err != nil || len(rows) != 1 {
		t.Fatalf("scan: %v %v", rows, err)
	}
	if err := eng.BindRelation("t"); err != nil {
		t.Fatal(err)
	}
	sol, ok, err := eng.QueryOnce("t(1, V)")
	if err != nil || !ok || sol["V"].String() != "one" {
		t.Fatalf("bound relation query: %v %v %v", sol, ok, err)
	}
}
