package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/wam"
)

// TestSolutionsReadByPosition: in every way a query can be evaluated,
// Binding reads the same value as Map, an unknown name reads nil, nothing
// is readable once the iteration is exhausted or closed, and QueryAll's
// maps are the caller's own.
func TestSolutionsReadByPosition(t *testing.T) {
	const prog = "p(1, a). p(2, f(Z, Z)). p(3, [x, y])."
	const paths = `edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- edge(X, Y), path(Y, Z).`
	inMemory := func(opts Options) func(*testing.T) *Session {
		return func(t *testing.T) *Session {
			e := newSession(t, opts)
			consult(t, e, prog)
			return e
		}
	}
	cases := []struct {
		name, goal string
		open       func(*testing.T) *Session
	}{
		{"direct call", "p(N, A)", inMemory(Options{})},
		{"linked $query", "p(N, A), N > 0", inMemory(Options{})},
		{"source mode", "p(N, A)", inMemory(Options{RuleStorage: RuleStorageSource})},
		{"set evaluation", "path(a, X)", func(t *testing.T) *Session {
			e := newSession(t, Options{})
			consultExternal(paths)(t, e)
			e.SetStrategy(StrategySet)
			return e
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.open(t)
			before := e.KB().setopsQueries.Value()
			sol, err := e.Query(c.goal)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Binding(sol.Vars()[0]) != nil || sol.Map() != nil {
				t.Error("a binding is readable before the first solution")
			}
			n := 0
			for sol.Next() {
				n++
				m := sol.Map()
				for _, name := range sol.Vars() {
					if b := sol.Binding(name); b == nil || m[name] == nil || b.String() != m[name].String() {
						t.Errorf("solution %d: Binding(%s) = %v, Map()[%s] = %v", n, name, b, name, m[name])
					}
				}
				if len(m) != len(sol.Vars()) || sol.Binding("Nope") != nil {
					t.Errorf("solution %d: map %v over %v, unknown name %v", n, m, sol.Vars(), sol.Binding("Nope"))
				}
			}
			if sol.Err() != nil || n != 3 {
				t.Fatalf("%d solutions, err %v", n, sol.Err())
			}
			if sol.Binding(sol.Vars()[0]) != nil || sol.Map() != nil {
				t.Error("a binding is readable after exhaustion")
			}
			sol, err = e.Query(c.goal)
			if err != nil || !sol.Next() {
				t.Fatalf("rerun: %v", err)
			}
			sol.Close()
			if sol.Binding(sol.Vars()[0]) != nil || sol.Map() != nil {
				t.Error("a binding is readable after Close")
			}
			all, err := e.QueryAll(c.goal)
			if err != nil || len(all) != 3 {
				t.Fatalf("QueryAll: %v %v", all, err)
			}
			if fmt.Sprint(all[0]) == fmt.Sprint(all[1]) || fmt.Sprint(all[1]) == fmt.Sprint(all[2]) {
				t.Errorf("QueryAll's maps do not differ: %v", all)
			}
			if set := e.KB().setopsQueries.Value() > before; set != (c.name == "set evaluation") {
				t.Errorf("set evaluation used: %v", set)
			}
		})
	}
}

// TestStaleSolutionsAreInert: once a newer query has started, an earlier
// Solutions reads nothing, advances nowhere and closes nothing: the newer
// query keeps its answers and its deadline.
func TestStaleSolutionsAreInert(t *testing.T) {
	for mode, rs := range map[string]RuleStorage{"compiled": RuleStorageCompiled, "source": RuleStorageSource} {
		t.Run(mode, func(t *testing.T) {
			e := newSession(t, Options{RuleStorage: rs})
			consult(t, e, "p(1). p(2).")
			sol1, err := e.Query("p(X)")
			if err != nil || !sol1.Next() {
				t.Fatalf("first query: %v", err)
			}
			sol2, err := e.Query("p(Y)")
			if err != nil {
				t.Fatal(err)
			}
			sol1.Close()
			if sol1.Next() || sol1.Binding("X") != nil || sol1.Map() != nil {
				t.Errorf("a stale handle reads: Binding %v, Map %v", sol1.Binding("X"), sol1.Map())
			}
			var got []string
			for sol2.Next() {
				got = append(got, sol2.Binding("Y").String())
			}
			if fmt.Sprint(got) != "[1 2]" || sol2.Err() != nil {
				t.Errorf("the live query after a stale Close: %v, err %v", got, sol2.Err())
			}

			e.SetTimeout(100 * time.Millisecond)
			sol1, err = e.Query("p(X)")
			if err != nil || !sol1.Next() {
				t.Fatalf("first query: %v", err)
			}
			sol2, err = e.Query(spinGoal)
			if err != nil {
				t.Fatal(err)
			}
			sol1.Close()
			start := time.Now()
			if sol2.Next() || !errors.Is(sol2.Err(), wam.ErrTimeout) {
				t.Errorf("after a stale Close the spinning query ended with %v after %v, want a timeout", sol2.Err(), time.Since(start))
			}
		})
	}
}

// TestQueryAllocatesOnce: a warm resident keyed goal costs one heap object
// per query, the Solutions, with its binding read.
func TestQueryAllocatesOnce(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(k1, 7). f(k2, 9).")(t, e)
	query := func() {
		sol, err := e.Query("f(k1, V)")
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Next() || sol.Binding("V") != term.Int(7) {
			t.Fatalf("f(k1, V): V = %v, err %v", sol.Binding("V"), sol.Err())
		}
		sol.Close()
	}
	query() // links the goal and the variant
	if n := testing.AllocsPerRun(50, query); n > 1 {
		t.Errorf("a query allocates %.1f times", n)
	}
}

// consult loads src into e's main memory.
func consult(t *testing.T, e *Session, src string) {
	t.Helper()
	if err := e.Consult(src); err != nil {
		t.Fatal(err)
	}
}

// TestEveryQueryTracedOnce: a query ends in one place, which writes its
// trace record, whether it is exhausted, closed, abandoned for the next
// query, left open at Session.Close or fails to start.
func TestEveryQueryTracedOnce(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		e := newSession(t, Options{RuleStorage: rs})
		consult(t, e, "p(1). p(2).")
		var buf bytes.Buffer
		e.SetTracer(obs.NewDeterministicTracer(&buf))
		sol, err := e.Query("p(X)") // abandoned after one solution
		if err != nil || !sol.Next() {
			t.Fatalf("p(X): %v", err)
		}
		if _, err := e.QueryAll("p(Y)"); err != nil { // exhausted
			t.Fatal(err)
		}
		if sol, err = e.Query("p(W)"); err != nil { // closed
			t.Fatal(err)
		}
		sol.Close()
		if _, err := e.Query("p(("); err == nil { // fails to parse
			t.Fatal("p(( parsed")
		}
		if sol, err = e.Query("p(Z)"); err != nil || !sol.Next() { // open at Close
			t.Fatalf("p(Z): %v", err)
		}
		e.Close()
		got := map[string]int{}
		for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatal(err)
			}
			if rec["msg"] == obs.EventQuery {
				got[rec["goal"].(string)]++
			}
		}
		want := map[string]int{"p(X)": 1, "p(Y)": 1, "p(W)": 1, "p((": 1, "p(Z)": 1}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rule storage %d: query records %v, want %v", rs, got, want)
		}
	}
}

// TestMapSharesVariables: a variable two answers share is one *term.Var in
// the answer map, in both rule-storage modes.
func TestMapSharesVariables(t *testing.T) {
	for _, rs := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		sols, err := newSession(t, Options{RuleStorage: rs}).QueryAll("catch((X = 1, throw(e)), e, Y = X)")
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 {
			t.Fatalf("rule storage %d: %d solutions, want 1", rs, len(sols))
		}
		x, y := sols[0]["X"], sols[0]["Y"]
		if _, ok := x.(*term.Var); !ok || x != y {
			t.Errorf("rule storage %d: X = %v (%p), Y = %v (%p); want one unbound variable", rs, x, x, y, y)
		}
	}
}

// TestQueryPhasesPartitionElapsed: a query reads the clock when it opens
// and when it ends, and its exec phase is what the other phases leave of
// the elapsed time, so each traced query's seven spans sum to its elapsed
// time exactly: a resident hit, a call that traps, a linked $query, a
// source-mode query, one that fails to start, one that raises, and an
// iterator abandoned for the next query, whose caller time is exec. Exec
// read by educe_statistics/2 mid-query is not charged again at its end.
func TestQueryPhasesPartitionElapsed(t *testing.T) {
	var buf, srcBuf bytes.Buffer // query IDs are unique per knowledge base
	e := newSession(t, Options{})
	e.SetTracer(obs.NewTracer(&buf))
	consultExternal("f(k1, a). f(k2, b).")(t, e)
	for _, q := range []string{"f(k1, X)", "f(k1, X)", "findall(X, f(K, X), L)", "nope(1)", "f(("} {
		e.QueryAll(q)
	}
	stats, err := e.QueryAll("educe_statistics(exec_ns, A), atom_length(abc, _), educe_statistics(exec_ns, B)")
	if err != nil || len(stats) != 1 {
		t.Fatalf("educe_statistics: %v %v", stats, err)
	}
	a, b := stats[0]["A"].(term.Int), stats[0]["B"].(term.Int)
	cost := e.Cost()
	if end := cost.Phases.Get(obs.PhaseExec); a > b || time.Duration(b) > end {
		t.Errorf("exec read mid-query %d then %d, %v at the end", a, b, end)
	}
	sol, err := e.Query("f(K, X)")
	if err != nil || !sol.Next() {
		t.Fatalf("f(K, X): %v", err)
	}
	const caller = 2 * time.Millisecond
	time.Sleep(caller) // the caller's time, then the iterator is abandoned
	e.QueryAll("f(k2, X)")
	src := newSession(t, Options{RuleStorage: RuleStorageSource})
	src.SetTracer(obs.NewTracer(&srcBuf))
	consultExternal("g(1). g(2). h(X) :- g(X).")(t, src)
	src.QueryAll("h(X)")
	src.QueryAll("g(X), nope(X)")

	// A query's seven span records come right before its summary.
	var sum, exec int64
	var goals []string
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()+srcBuf.String()), "\n") {
		var rec struct {
			Msg, Phase, Goal string
			NS               int64
			ElapsedNS        int64 `json:"elapsed_ns"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Msg {
		case obs.EventSpan:
			sum += rec.NS
			if rec.Phase == obs.PhaseExec.String() {
				exec = rec.NS
			}
		case obs.EventQuery:
			goals = append(goals, rec.Goal)
			if sum != rec.ElapsedNS || exec < 0 {
				t.Errorf("%s: spans sum to %d ns (exec %d), elapsed %d ns", rec.Goal, sum, exec, rec.ElapsedNS)
			}
			if rec.Goal == "f(K, X)" && exec < caller.Nanoseconds() {
				t.Errorf("abandoned f(K, X): exec %d ns, less than the caller's %v", exec, caller)
			}
			sum, exec = 0, 0
		}
	}
	if len(goals) != 10 {
		t.Errorf("traced %d queries %q, want 10", len(goals), goals)
	}
}
