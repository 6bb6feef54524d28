// Persistence: a knowledge base that survives the process — compiled
// clauses stored in a page file, reopened as a second knowledge base,
// extended with assert/retract, and inspected through the procedures table.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/educe"
)

func main() {
	dir, err := os.MkdirTemp("", "educe-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kb.edb")

	// Session 1: build the knowledge base and close it.
	{
		kb, err := educe.OpenKB(educe.Options{StorePath: path})
		if err != nil {
			log.Fatal(err)
		}
		s, err := kb.NewSession()
		if err != nil {
			log.Fatal(err)
		}
		err = s.ConsultExternal(`
			capital(germany, berlin).
			capital(france, paris).
			capital(italy, rome).
			neighbour(germany, france).
			neighbour(france, italy).
			reachable(A, B) :- neighbour(A, B).
			reachable(A, B) :- neighbour(B, A).
			reachable(A, C) :- neighbour(A, B), reachable(B, C).
		`)
		if err != nil {
			log.Fatal(err)
		}
		s.Close()
		if err := kb.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("session 1: stored compiled knowledge base in", path)
	}

	// Session 2: reopen — the procedures table reconnects everything.
	kb, err := educe.OpenKB(educe.Options{StorePath: path})
	if err != nil {
		log.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	fmt.Println("\nsession 2: stored procedures:")
	for _, p := range kb.DB().Procs() {
		fmt.Printf("  %-14s %d clauses (form=%d, indexed args=%d)\n",
			p.Indicator(), p.ClauseCount, p.Form, p.K)
	}

	sol, ok, err := s.QueryOnce("capital(france, C)")
	if err != nil || !ok {
		log.Fatalf("capital query: ok=%v err=%v", ok, err)
	}
	fmt.Println("\ncapital of france:", sol["C"])

	n, err := s.QueryCount("reachable(germany, X), capital(X, _)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("countries reachable from germany (with capitals):", n)

	// Dynamic updates live alongside the stored base.
	if _, err := s.QueryAll("assert(visited(berlin)), assert(visited(rome))"); err != nil {
		log.Fatal(err)
	}
	sols, err := s.QueryAll("capital(Land, City), visited(City)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvisited capitals:")
	for _, sol := range sols {
		fmt.Printf("  %s (%s)\n", sol["City"], sol["Land"])
	}
}
