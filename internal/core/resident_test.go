package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/term"
)

// TestResidentLogicalUpdateView mutates a predicate while the same query
// holds a live choice point into its code. The running iteration finishes
// over the clauses it started with (one solution, X = 3, since the first
// mutation happens at X = 1); the next call — later in the same query and
// in the next query — sees the update. Each case runs bare and under
// catch/3.
func TestResidentLogicalUpdateView(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(t *testing.T, e *Session)
		pred   string
		mutate string
		same   string // P's sorted extension seen later in the same query
		next   string // and by the next query
	}{
		{
			name: "assert on a dynamic predicate",
			setup: func(t *testing.T, e *Session) {
				if _, err := e.QueryAll("assert(d(1)), assert(d(2)), assert(d(3))"); err != nil {
					t.Fatal(err)
				}
			},
			pred: "d", mutate: "assert(d(7))",
			same: "[1,2,3,7,7,7]", next: "[1,2,3,7,7,7]",
		},
		{
			name:  "assert_external on stored facts",
			setup: consultExternal("f(1). f(2). f(3)."),
			pred:  "f", mutate: "assert_external(f(7))",
			same: "[1,2,3,7,7,7]", next: "[1,2,3,7,7,7]",
		},
		{
			name:  "retract_external on stored facts",
			setup: consultExternal("f(1). f(2). f(3)."),
			pred:  "f", mutate: "ignore(retract_external(f(2)))",
			same: "[1,3]", next: "[1,3]",
		},
		{
			name:  "assert_external on a stored rule procedure",
			setup: consultExternal("r(1). r(2). r(X) :- X = 3."),
			pred:  "r", mutate: "assert_external(r(7))",
			same: "[1,2,3,7,7,7]", next: "[1,2,3,7,7,7]",
		},
	}
	for _, tc := range cases {
		for wname, wrap := range map[string]string{"bare": "%s", "catch": "catch((%s), _, fail)"} {
			t.Run(tc.name+"/"+wname, func(t *testing.T) {
				e := newSession(t, Options{})
				tc.setup(t, e)
				goal := fmt.Sprintf("%[1]s(X), %[2]s, X >= 3, findall(Y, %[1]s(Y), L0), msort(L0, L)", tc.pred, tc.mutate)
				sols, err := e.QueryAll(fmt.Sprintf(wrap, goal))
				if err != nil {
					t.Fatalf("mutating query: %v", err)
				}
				if len(sols) != 1 || sols[0]["X"].String() != "3" {
					t.Fatalf("running iteration gave %v, want exactly X = 3", sols)
				}
				if got := sols[0]["L"].String(); got != tc.same {
					t.Errorf("next call in the same query saw %s, want %s", got, tc.same)
				}
				next := values(t, e, fmt.Sprintf("findall(Y, %s(Y), L0), msort(L0, L)", tc.pred), "L")
				if !reflect.DeepEqual(next, []string{tc.next}) {
					t.Errorf("next query saw %v, want %s", next, tc.next)
				}
			})
		}
	}
}

func consultExternal(src string) func(*testing.T, *Session) {
	return func(t *testing.T, e *Session) {
		t.Helper()
		if err := e.ConsultExternal(src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResidentRollbackMidQuery: code linked from clauses a transaction
// wrote is evicted by the rollback itself, so the rest of the same query
// already runs on the restored knowledge base.
func TestResidentRollbackMidQuery(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("g(1).")(t, e)
	n, err := e.QueryCount(`begin, assert_external(g(2)), g(2), rollback, \+ g(2), g(1)`)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v, want the rolled-back clause gone within the query", n, err)
	}
}

// TestResidentCodeTablesStayFlat: neither re-materialising a set-at-a-time
// result nor running plain queries may grow the machine's block and
// builtin tables (the parent commit went 126 -> 3126 blocks and 84 -> 1084
// builtins over the first loop, each dead builtin pinning its tuples).
func TestResidentCodeTablesStayFlat(t *testing.T) {
	e := newSession(t, Options{}) // StrategyAuto
	consultExternal(`
		edge(a, b).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).
	`)(t, e)
	round := func(i int) {
		t.Helper()
		q := fmt.Sprintf("assert_external(edge(a, x%d))", i)
		if n, err := e.QueryCount(q); err != nil || n != 1 {
			t.Fatalf("%s: n=%d err=%v", q, n, err)
		}
		if n, err := e.QueryCount("path(a, X)"); err != nil || n != i+2 {
			t.Fatalf("round %d: path(a, X) has %d solutions (err=%v), want %d", i, n, err, i+2)
		}
	}
	plain := func() {
		t.Helper()
		if n, err := e.QueryCount("member(X, [1, 2]), (X = 1 ; X = 2)"); err != nil || n != 2 {
			t.Fatalf("plain query: n=%d err=%v", n, err)
		}
	}
	// The warm-up takes every transition between the two query shapes, so
	// the tables reach their high-water mark before the baseline is read.
	const warm, rounds = 6, 1000
	for i := 0; i < warm; i += 2 {
		round(i)
		round(i + 1)
		plain()
		plain()
	}
	base, fixpoints := e.Machine().Stats(), e.KB().setopsQueries.Value()
	for i := warm; i < warm+rounds; i++ {
		round(i)
	}
	if got := e.KB().setopsQueries.Value() - fixpoints; got != rounds {
		t.Fatalf("%d fixpoints over %d rounds: the loop did not re-materialise", got, rounds)
	}
	for i := 0; i < rounds; i++ {
		plain()
	}
	st := e.Machine().Stats()
	t.Logf("blocks %d -> %d, builtins %d -> %d", base.Blocks, st.Blocks, base.Builtins, st.Builtins)
	if st.Blocks != base.Blocks || st.Builtins != base.Builtins {
		t.Errorf("code tables grew: blocks %d -> %d, builtins %d -> %d",
			base.Blocks, st.Blocks, base.Builtins, st.Builtins)
	}
}

// TestResidentAssertLoopsReclaim: every assert/1 relinks the whole dynamic
// predicate and retires the definition it replaces. Those must be
// reclaimed as the loop runs — inside one query, where no Reset happens,
// and through the API with no query at all, in both rule-storage modes —
// or N asserts hold N definitions of 1..N clauses. A choice point into
// the predicate pins the one definition it addresses, nothing more.
func TestResidentAssertLoopsReclaim(t *testing.T) {
	const n = 1000
	// slack is what the sweep schedule may leave retired at any moment:
	// up to minSweep blocks after a sweep that freed everything, once more
	// for the pinned survivor doubling the threshold.
	const slack = 24
	loops := map[string]func(t *testing.T, e *Session){
		"in-query": func(t *testing.T, e *Session) {
			q := fmt.Sprintf("between(1, %d, I), assert(d(I)), I >= %d", n, n)
			if c, err := e.QueryCount(q); err != nil || c != 1 {
				t.Fatalf("%s: n=%d err=%v", q, c, err)
			}
		},
		"in-query under a choice point": func(t *testing.T, e *Session) {
			q := fmt.Sprintf("assert(d(0)), assert(d(0)), d(_), between(1, %d, I), assert(d(I)), I >= %d, !", n, n)
			if c, err := e.QueryCount(q); err != nil || c != 1 {
				t.Fatalf("%s: n=%d err=%v", q, c, err)
			}
		},
		"API": func(t *testing.T, e *Session) {
			for i := 0; i < n; i++ {
				if err := e.AssertTerm(term.Comp("d", term.Int(i)), false); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, loop := range loops {
		for _, mode := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
			if mode == RuleStorageSource && name != "API" {
				continue // the baseline interpreter asserts into its own store
			}
			t.Run(fmt.Sprintf("%s/storage%d", name, mode), func(t *testing.T) {
				e := newSession(t, Options{RuleStorage: mode})
				base := e.Machine().Stats().Blocks
				loop(t, e)
				// Read before the next Query's Reset reclaims everything.
				if got := e.Machine().Stats().Blocks; got > base+slack {
					t.Fatalf("block table %d -> %d over %d asserts: superseded definitions not reclaimed", base, got, n)
				}
			})
		}
	}
}
