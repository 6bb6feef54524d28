// Dualstrategy: the paper's §4 closing point — the same stored data served
// both set-at-a-time (relational operators) and term-at-a-time (Prolog
// goals over the bound relation), freely mixed within one session.
package main

import (
	"fmt"
	"log"

	"repro/educe"
	"repro/internal/rel"
)

func main() {
	kb, err := educe.OpenKB(educe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer kb.Close()
	eng, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// A flat relation in the storage engine, with an index.
	r, err := eng.CreateRelation(rel.Schema{
		Name: "employee",
		Attrs: []rel.Attr{
			{Name: "id", Type: rel.Int},
			{Name: "name", Type: rel.String},
			{Name: "dept", Type: rel.String},
			{Name: "salary", Type: rel.Int},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	depts := []string{"kb", "db", "os", "net"}
	for i := 0; i < 1000; i++ {
		err := r.Insert(rel.Tuple{
			rel.IntV(int64(i)),
			rel.StringV(fmt.Sprintf("emp%04d", i)),
			rel.StringV(depts[i%4]),
			rel.IntV(int64(30000 + (i*striding)%90000)),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := r.CreateIndex("id"); err != nil {
		log.Fatal(err)
	}
	if err := r.CreateIndex("salary"); err != nil {
		log.Fatal(err)
	}

	// Set-oriented: relational operator tree (selection + projection).
	fmt.Println("Set-oriented: employees with salary in [115000, 120000):")
	it := rel.Project(
		rel.IndexScan(r, "salary", rel.IntV(115000), rel.IntV(119999)),
		[]int{1, 3},
	)
	rows, err := rel.Collect(it)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range rows {
		fmt.Printf("  %s earns %s\n", t[0], t[1])
	}

	// Term-oriented: the same relation as a Prolog predicate, driven by
	// rules with negation and aggregation.
	if err := eng.BindRelation("employee"); err != nil {
		log.Fatal(err)
	}
	err = eng.Consult(`
		dept_size(D, N) :- findall(x, employee(_, _, D, _), L), length(L, N).
		top_earner(D, Name, S) :-
			employee(_, Name, D, S),
			\+ ( employee(_, _, D, S2), S2 > S ).
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTerm-oriented: department sizes and top earners:")
	for _, d := range depts {
		q := fmt.Sprintf("dept_size(%s, N), top_earner(%s, Who, S)", d, d)
		sol, ok, err := eng.QueryOnce(q)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  %-3s: %s employees, top earner %s at %s\n",
				d, sol["N"], sol["Who"], sol["S"])
		}
	}

	// Mixed: a set-oriented pre-selection feeding a term-oriented check.
	fmt.Println("\nMixed: high earners validated through the Prolog side:")
	high, err := rel.Collect(rel.IndexScan(r, "salary", rel.IntV(118000), rel.IntV(119999)))
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range high {
		q := fmt.Sprintf("top_earner(%s, W, _), W == %s", t[2].S, t[1].S)
		if _, ok, _ := eng.QueryOnce(q); ok {
			fmt.Printf("  %s is the top earner of %s\n", t[1].S, t[2].S)
		}
	}

	// Set-at-a-time recursion (DESIGN.md §14): a reporting chain stored
	// in the EDB, its transitive closure answered by the semi-naive
	// fixpoint driver instead of tuple-at-a-time resolution. A session
	// opts in with SetStrategy (or educe_strategy/1 from Prolog).
	var chain string
	for i := 0; i < 19; i++ {
		chain += fmt.Sprintf("boss(m%d, m%d).\n", i, i+1)
	}
	chain += "above(X, Y) :- boss(X, Y).\n"
	chain += "above(X, Z) :- boss(X, Y), above(Y, Z).\n"
	if err := eng.ConsultExternal(chain); err != nil {
		log.Fatal(err)
	}
	s, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	s.SetStrategy(educe.StrategySet)
	n, err := s.QueryCount("above(m0, X)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSet-at-a-time recursion: m0 is above %d people (semi-naive fixpoint)\n", n)
}

const striding = 7919 // prime stride spreads salaries deterministically
