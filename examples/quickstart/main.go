// Quickstart: the smallest complete Educe* program — rules in main memory,
// facts in the external database, one query spanning both.
package main

import (
	"fmt"
	"log"

	"repro/educe"
)

func main() {
	kb, err := educe.OpenKB(educe.Options{}) // in-memory EDB
	if err != nil {
		log.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Facts go to the external database: they are compiled to relocatable
	// WAM code, stored with per-argument index keys, and retrieved by
	// pre-unification when queried.
	err = s.ConsultExternal(`
		parent(tom, bob).   parent(tom, liz).
		parent(bob, ann).   parent(bob, pat).
		parent(pat, jim).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Rules stay in main memory, compiled once.
	err = s.Consult(`
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
	`)
	if err != nil {
		log.Fatal(err)
	}

	sols, err := s.Query("ancestor(tom, Who)")
	if err != nil {
		log.Fatal(err)
	}
	defer sols.Close()
	fmt.Println("tom's descendants:")
	for sols.Next() {
		fmt.Println("  ", sols.Binding("Who"))
	}
	if err := sols.Err(); err != nil {
		log.Fatal(err)
	}

	// The session keeps statistics on how selective the EDB retrieval was.
	st := s.Stats()
	fmt.Printf("EDB retrievals: %d, candidate clauses returned: %d (of %d stored)\n",
		st.EDB.Retrievals, st.EDB.CandidatesReturned, st.EDB.ClausesStored)
}
