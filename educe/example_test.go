package educe_test

import (
	"fmt"
	"log"

	"repro/educe"
)

// The basic flow: facts in the external database, rules in main memory,
// one query spanning both.
func Example() {
	kb, err := educe.OpenKB(educe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	if err := s.ConsultExternal(`
		parent(tom, bob).
		parent(bob, ann).
	`); err != nil {
		log.Fatal(err)
	}
	if err := s.Consult(`
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`); err != nil {
		log.Fatal(err)
	}

	sols, err := s.Query("grandparent(tom, W)")
	if err != nil {
		log.Fatal(err)
	}
	defer sols.Close()
	for sols.Next() {
		fmt.Println(sols.Binding("W"))
	}
	// Output: ann
}

// QueryAll collects every solution at once.
func ExampleSession_queryAll() {
	kb, _ := educe.OpenKB(educe.Options{})
	defer kb.Close()
	s, _ := kb.NewSession()
	defer s.Close()
	s.Consult("n(1). n(2). n(3).")
	sols, _ := s.QueryAll("n(X), X > 1")
	for _, sol := range sols {
		fmt.Println(sol["X"])
	}
	// Output:
	// 2
	// 3
}

// The Educe baseline interprets source-form rules; both modes give the
// same answers, at different cost.
func ExampleRuleStorage() {
	kb, _ := educe.OpenKB(educe.Options{RuleStorage: educe.RuleStorageSource})
	defer kb.Close()
	base, _ := kb.NewSession()
	defer base.Close()
	base.ConsultExternal(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)
	n, _ := base.QueryCount("path(a, X)")
	fmt.Println(n, "destinations")
	// Output: 2 destinations
}

// Exceptions thrown by Prolog code are catchable in Prolog and surface as
// Go errors when uncaught.
func ExampleSession_exceptions() {
	kb, _ := educe.OpenKB(educe.Options{})
	defer kb.Close()
	s, _ := kb.NewSession()
	defer s.Close()
	s.Consult(`
		guarded(X, R) :- catch(check(X), bad(Why), R = rejected(Why)).
		check(X) :- X < 0, throw(bad(negative)).
		check(_).
	`)
	sol, _, _ := s.QueryOnce("guarded(-1, R)")
	fmt.Println(sol["R"])
	_, err := s.QueryAll("throw(boom)")
	fmt.Println(err)
	// Output:
	// rejected(negative)
	// wam: uncaught exception: boom
}
