package core

// Randomised differential testing: generate random Datalog-ish programs
// (non-recursive, so every query terminates), run the same queries on the
// compiled engine, the interpreter, and both external-storage modes, and
// require identical solution lists. Seeds are fixed for reproducibility.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/term"
)

// genProgram builds a stratified random program: layer-0 predicates are
// facts; layer-k rules only call layer-(k-1) predicates, guaranteeing
// termination.
func genProgram(r *rand.Rand) (program string, queries []string) {
	consts := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder

	// Layer 0: fact predicates p0_0..p0_2 of arity 2.
	nFacts := 3
	for p := 0; p < nFacts; p++ {
		seen := map[string]bool{}
		for i := 0; i < 3+r.Intn(5); i++ {
			row := fmt.Sprintf("p0_%d(%s, %s).", p,
				consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
			if !seen[row] {
				seen[row] = true
				b.WriteString(row + "\n")
			}
		}
	}

	// Layers 1..2: rules over the previous layer.
	for layer := 1; layer <= 2; layer++ {
		for p := 0; p < 2; p++ {
			nclauses := 1 + r.Intn(2)
			for c := 0; c < nclauses; c++ {
				prev := func() string {
					if layer == 1 {
						return fmt.Sprintf("p0_%d", r.Intn(nFacts))
					}
					return fmt.Sprintf("p1_%d", r.Intn(2))
				}
				head := fmt.Sprintf("p%d_%d(X, Z)", layer, p)
				var body string
				switch r.Intn(4) {
				case 0: // join
					body = fmt.Sprintf("%s(X, Y), %s(Y, Z)", prev(), prev())
				case 1: // filter with negation
					body = fmt.Sprintf("%s(X, Z), \\+ %s(Z, X)", prev(), prev())
				case 2: // disjunction
					body = fmt.Sprintf("( %s(X, Z) ; %s(Z, X) )", prev(), prev())
				default: // if-then-else on a test
					body = fmt.Sprintf("%s(X, Z), ( X == Z -> true ; %s(X, _) )", prev(), prev())
				}
				b.WriteString(head + " :- " + body + ".\n")
			}
		}
	}

	queries = []string{
		"p1_0(X, Y)",
		"p1_1(a, Y)",
		"p2_0(X, Y)",
		"p2_1(X, b)",
		fmt.Sprintf("p0_%d(%s, X)", r.Intn(nFacts), consts[r.Intn(len(consts))]),
		"findall(X-Y, p2_0(X, Y), L), msort(L, S)",
	}
	return b.String(), queries
}

func runOnInterp(t *testing.T, program, query string) ([]string, error) {
	t.Helper()
	in := interp.New()
	p := parser.New(program)
	terms, err := p.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range terms {
		if err := in.Assert(tm); err != nil {
			t.Fatal(err)
		}
	}
	goal, vars, err := parser.ParseTerm(query)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []map[string]term.Term
	err = in.Solve(goal, nil, func(env *interp.Env) bool {
		sol := map[string]term.Term{}
		for _, n := range names {
			sol[n] = env.ResolveDeep(vars[n])
		}
		out = append(out, sol)
		return true
	})
	return renderSolutions(out), err
}

func TestFuzzDifferential(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			program, queries := genProgram(r)

			// Seven configurations under test. The set strategy answers
			// with sets and its bags may differ (DESIGN §14), so it is
			// compared as a sorted, deduplicated set, and not on the
			// findall query, whose answer holds a bag.
			type config struct {
				name string
				run  func(q string) ([]string, error)
				set  bool
			}
			mkEngine := func(opts Options, external bool) func(q string) ([]string, error) {
				e := newSession(t, opts)
				var err error
				if external {
					err = e.ConsultExternal(program)
				} else {
					err = e.Consult(program)
				}
				if err != nil {
					t.Fatalf("consult: %v", err)
				}
				return func(q string) ([]string, error) {
					sols, err := e.QueryAll(q)
					return renderSolutions(sols), err
				}
			}
			// Each line stored by a session of its own, queries from another.
			perSession := func() func(q string) ([]string, error) {
				kb, err := OpenKB(Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { kb.Close() })
				for _, line := range strings.Split(strings.TrimSpace(program), "\n") {
					s, err := kb.NewSession()
					if err != nil {
						t.Fatal(err)
					}
					if err := s.ConsultExternal(line); err != nil {
						t.Fatalf("consult %q: %v", line, err)
					}
					s.Close()
				}
				e, err := kb.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { e.Close() })
				return func(q string) ([]string, error) {
					sols, err := e.QueryAll(q)
					return renderSolutions(sols), err
				}
			}
			// Consulted in compiled mode, queried after a switch to source.
			switched := func() func(q string) ([]string, error) {
				e := newSession(t, Options{})
				if err := e.Consult(program); err != nil {
					t.Fatalf("consult: %v", err)
				}
				if err := e.SetRuleStorage(RuleStorageSource); err != nil {
					t.Fatal(err)
				}
				return func(q string) ([]string, error) {
					sols, err := e.QueryAll(q)
					return renderSolutions(sols), err
				}
			}
			configs := []config{
				{name: "wam-internal", run: mkEngine(Options{}, false)},
				{name: "educe*-external", run: mkEngine(Options{}, true)},
				{name: "educe-source", run: mkEngine(Options{RuleStorage: RuleStorageSource}, true)},
				{name: "interp", run: func(q string) ([]string, error) { return runOnInterp(t, program, q) }},
				{name: "set-external", run: mkEngine(Options{Strategy: StrategySet}, true), set: true},
				{name: "per-session-external", run: perSession()},
				{name: "switched-internal", run: switched()},
			}

			for _, q := range queries {
				ref, err := configs[0].run(q)
				if err != nil {
					t.Fatalf("%s %q: %v\nprogram:\n%s", configs[0].name, q, err, program)
				}
				for _, c := range configs[1:] {
					if c.set && strings.HasPrefix(q, "findall(") {
						continue
					}
					got, err := c.run(q)
					if err != nil {
						t.Fatalf("%s %q: %v\nprogram:\n%s", c.name, q, err, program)
					}
					want := ref
					if c.set {
						want, got = distinctSorted(ref), distinctSorted(got)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s disagrees on %q:\n  ref: %v\n  got: %v\nprogram:\n%s",
							c.name, q, want, got, program)
					}
				}
			}
		})
	}
}

// distinctSorted sorts and deduplicates rendered solutions.
func distinctSorted(sols []string) []string {
	s := slices.Clone(sols)
	slices.Sort(s)
	return slices.Compact(s)
}
