// Transport: the paper's motivating scenario (§5.1) in miniature — a
// public-transport knowledge base with timetable facts in the external
// database and route-finding rules in main memory, queried both ways and
// compared against the Educe baseline.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/educe"
)

const network = `
% line, kind, from, to, minutes
seg(u3, ubahn, marienplatz, sendlinger_tor, 2).
seg(u3, ubahn, sendlinger_tor, goetheplatz, 2).
seg(u3, ubahn, goetheplatz, poccistrasse, 2).
seg(u6, ubahn, marienplatz, odeonsplatz, 2).
seg(u6, ubahn, odeonsplatz, universitaet, 2).
seg(t17, tram, sendlinger_tor, mueller_str, 4).
seg(t17, tram, mueller_str, isartor, 4).
seg(b52, bus, goetheplatz, theresienwiese, 6).
seg(b52, bus, theresienwiese, hauptbahnhof, 5).
seg(s1, sbahn, hauptbahnhof, marienplatz, 3).
seg(s1, sbahn, marienplatz, isartor, 2).
`

const rules = `
direct(F, T, Line, M) :- seg(Line, _, F, T, M).
route(F, T, M) :- direct(F, T, _, M).
route(F, T, M) :-
	seg(L1, _, F, Mid, M1),
	seg(L2, _, Mid, T, M2),
	L1 \= L2,
	M is M1 + M2 + 5.   % five minutes to change
`

// openSession opens an in-memory knowledge base with opts and one session
// over it.
func openSession(opts educe.Options) *educe.Session {
	kb, err := educe.OpenKB(opts)
	if err != nil {
		log.Fatal(err)
	}
	s, err := kb.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	star := openSession(educe.Options{})
	defer star.KB().Close()
	defer star.Close()
	if err := star.ConsultExternal(network); err != nil {
		log.Fatal(err)
	}
	if err := star.Consult(rules); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Direct connections from marienplatz:")
	sols, err := star.Query("direct(marienplatz, To, Line, M)")
	if err != nil {
		log.Fatal(err)
	}
	for sols.Next() {
		fmt.Printf("  %-16s via %-4s %s min\n",
			sols.Binding("To"), sols.Binding("Line"), sols.Binding("M"))
	}
	sols.Close()

	fmt.Println("\nRoutes sendlinger_tor -> theresienwiese (at most one change):")
	sols, err = star.Query("route(sendlinger_tor, theresienwiese, M)")
	if err != nil {
		log.Fatal(err)
	}
	for sols.Next() {
		fmt.Printf("  %s minutes\n", sols.Binding("M"))
	}
	sols.Close()

	// The same knowledge base under the Educe baseline (source-form rules
	// plus an interpreter), timed side by side.
	base := openSession(educe.Options{RuleStorage: educe.RuleStorageSource})
	defer base.KB().Close()
	defer base.Close()
	if err := base.ConsultExternal(network + rules); err != nil {
		log.Fatal(err)
	}

	starExt := openSession(educe.Options{})
	defer starExt.KB().Close()
	defer starExt.Close()
	if err := starExt.ConsultExternal(network + rules); err != nil {
		log.Fatal(err)
	}

	const q = "route(marienplatz, X, M)"
	const reps = 200
	timeIt := func(e *educe.Session) time.Duration {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := e.QueryAll(q); err != nil {
				log.Fatal(err)
			}
		}
		return time.Since(t0) / reps
	}
	fmt.Printf("\nEverything in the EDB, %d repetitions of %q:\n", reps, q)
	fmt.Printf("  Educe* (compiled code in EDB):  %v per query\n", timeIt(starExt))
	fmt.Printf("  Educe  (source text in EDB):    %v per query\n", timeIt(base))
}
