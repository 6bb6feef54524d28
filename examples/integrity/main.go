// Integrity: the paper's §5.3 application — database integrity checking
// by constraint specialisation. The constraint base and the specialiser
// live in the EDB as compiled code; each update is "preprocessed" into the
// residual checks it induces, without touching the stored facts.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/educe"
	"repro/internal/bench/icheck"
)

func main() {
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

	// The five constraints and the specialisation program, stored
	// compiled in the external database.
	if err := s.ConsultExternal(icheck.Program); err != nil {
		log.Fatal(err)
	}

	updates := []string{
		"inserted(emp(9001, alice, dept_2, 95000, 17, 34, proj_3))",
		"inserted(emp(9002, bob, dept_9, 250000, 18, 30, proj_4))",  // violates salary cap
		"inserted(emp(9003, eve, dept_1, 80000, 9003, 41, proj_5))", // manages herself
		"deleted(emp(17, old, dept_0, 60000, 3, 55, proj_2))",
	}

	for _, u := range updates {
		q := fmt.Sprintf("specialise_all(%s, Pairs)", u)
		t0 := time.Now()
		sol, ok, err := s.QueryOnce(q)
		if err != nil || !ok {
			log.Fatalf("%s: ok=%v err=%v", u, ok, err)
		}
		fmt.Printf("update:  %s\n", u)
		fmt.Printf("  preprocess time: %v\n", time.Since(t0))
		fmt.Printf("  residual checks: %s\n\n", sol["Pairs"])
	}

	st := s.Stats()
	fmt.Printf("session: %d WAM instructions, %d EDB retrievals, heap peak %d cells\n",
		st.Machine.Instructions, st.EDB.Retrievals, st.Machine.HeapPeak)
}
