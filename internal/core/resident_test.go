package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/edb"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/wam"
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
		key    string // a bound first argument every call of pred passes ("": none)
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
		{
			// r reads the materialised closure p by key; the call of p after
			// the retract maintains p while the first call's cursor runs.
			name: "retract_external under a maintained fixpoint",
			setup: consultExternal(`e(0, 1). e(1, 2). e(2, 3).
				p(X, Y) :- e(X, Y). p(X, Z) :- e(X, Y), p(Y, Z). r(X) :- p(0, X).`),
			pred: "r", mutate: "ignore((retract_external(e(1, 2)), p(0, _)))",
			same: "[1]", next: "[1]",
		},
		{
			// The keyed calls after the write find their variant by its
			// call key; the write changed it, or, for another key, not.
			name:  "assert_external of an admitted key",
			setup: consultExternal("f(k, 1). f(k, 2). f(k, 3). f(j, 9)."),
			pred:  "f", key: "k", mutate: "assert_external(f(k, 7))",
			same: "[1,2,3,7,7,7]", next: "[1,2,3,7,7,7]",
		},
		{
			name:  "retract_external of an admitted key",
			setup: consultExternal("f(k, 1). f(k, 2). f(k, 3). f(j, 9)."),
			pred:  "f", key: "k", mutate: "ignore(retract_external(f(k, 2)))",
			same: "[1,3]", next: "[1,3]",
		},
		{
			name:  "assert_external of a non-admitted key",
			setup: consultExternal("f(k, 1). f(k, 2). f(k, 3). f(j, 9)."),
			pred:  "f", key: "k", mutate: "assert_external(f(j, 7))",
			same: "[1,2,3]", next: "[1,2,3]",
		},
		{
			name:  "retract_external of a non-admitted key",
			setup: consultExternal("f(k, 1). f(k, 2). f(k, 3). f(j, 9)."),
			pred:  "f", key: "k", mutate: "ignore(retract_external(f(j, 9)))",
			same: "[1,2,3]", next: "[1,2,3]",
		},
	}
	for _, tc := range cases {
		for wname, wrap := range map[string]string{"bare": "%s", "catch": "catch((%s), _, fail)"} {
			t.Run(tc.name+"/"+wname, func(t *testing.T) {
				e := newSession(t, Options{})
				tc.setup(t, e)
				call := tc.pred + "("
				if tc.key != "" {
					call += tc.key + ", "
				}
				goal := fmt.Sprintf("%[1]sX), %[2]s, X >= 3, findall(Y, %[1]sY), L0), msort(L0, L)", call, tc.mutate)
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
				next := values(t, e, fmt.Sprintf("findall(Y, %sY), L0), msort(L0, L)", call), "L")
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

// TestResidentCallKeysDoNotCollide: a resident variant is found by the
// call's argument cells, so calls that differ only in the kind of an
// argument, or in a float filed under the same float-table index (the table
// is emptied at every query), must find different variants. Every query of
// one session answers as a fresh session does.
func TestResidentCallKeysDoNotCollide(t *testing.T) {
	cases := []struct {
		name, src string
		queries   []string
	}{
		{"floats at one float-table index", "f(1.5, a). f(2.5, b).",
			[]string{"f(1.5, X)", "f(2.5, X)", "f(1.5, X)"}},
		{"structure, other functor, list", "g(s(1), a). g(t(1), b). g([1], c).",
			[]string{"g(s(1), X)", "g(t(1), X)", "g([1], X)", "g(s(2), X)", "g([2], X)"}},
		{"an integer and an atom that print alike", "h(1, a). h('1', b).",
			[]string{"h(1, X)", "h('1', X)", "h(1, X)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newSession(t, Options{})
			consultExternal(tc.src)(t, e)
			for _, q := range tc.queries {
				fresh, err := e.KB().NewSession()
				if err != nil {
					t.Fatal(err)
				}
				got, want := answers(t, e, q), answers(t, fresh, q)
				fresh.Close()
				if got != want {
					t.Errorf("%s: %s, want %s as a fresh session answers", q, got, want)
				}
			}
		})
	}
}

// TestResidentHitAllocatesNothing: a call that finds its variant resident
// allocates nothing, so a goal making 100 such calls allocates what one
// making a single call does, up to a small constant. (The calls are written
// out: a failure-driven forall/between loop allocates per iteration itself.)
func TestResidentHitAllocatesNothing(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(k1, a). f(k2, b).")(t, e)
	calls := strings.TrimSuffix(strings.Repeat("f(k1, _), ", 100), ", ")
	if err := e.Consult("one :- f(k1, _). hundred :- " + calls + "."); err != nil {
		t.Fatal(err)
	}
	allocs := func(q string) float64 {
		answers(t, e, q) // links the goal and the variant
		return testing.AllocsPerRun(20, func() {
			if n, err := e.QueryCount(q); err != nil || n != 1 {
				t.Fatalf("%s: n=%d err=%v", q, n, err)
			}
		})
	}
	if one, hundred := allocs("one"), allocs("hundred"); hundred-one > 4 {
		t.Errorf("100 resident calls allocate %.0f times, one call %.0f: a hit allocates", hundred, one)
	}
}

// TestResidentWriteDropsOnlyAdmittedVariants: a stored-clause write drops
// the resident and shared variants whose pre-unification filter admits the
// written clause and no others. The reader loads variants of item/2,
// another session writes, and each later query of the reader must answer
// right at the stated retrieval cost (0: the variant stayed resident);
// variants is how many variants of item/2 the reader then holds.
func TestResidentWriteDropsOnlyAdmittedVariants(t *testing.T) {
	const facts = "item(k1, a). item(k2, b)."
	const k1, k2, all = "findall(V, item(k1, V), L)", "findall(V, item(k2, V), L)", "findall(K, item(K, _), L0), msort(L0, L)"
	type check struct {
		q, want string
		retr    uint64
	}
	run := func(goals ...string) func(*testing.T, *Session) {
		return func(t *testing.T, w *Session) {
			t.Helper()
			for _, g := range goals {
				if n, err := w.QueryCount(g); err != nil || n == 0 {
					t.Fatalf("write %s: n=%d err=%v", g, n, err)
				}
			}
		}
	}
	var past []string
	for i := 0; i <= writeLogLen; i++ {
		past = append(past, fmt.Sprintf("assert_external(item(w%d, c))", i))
	}
	cases := []struct {
		name     string
		src      string
		source   bool // stored in source form
		load     []string
		write    func(*testing.T, *Session)
		after    []check
		variants int
	}{
		{
			name: "a: a write of another key keeps the loaded variants",
			src:  facts, load: []string{k1, k2},
			write:    run("assert_external(item(k3, c))"),
			after:    []check{{k1, "[a]", 0}, {k2, "[b]", 0}, {"findall(V, item(k3, V), L)", "[c]", 1}},
			variants: 3,
		},
		{
			name: "b: a retract drops its key's variant only",
			src:  facts, load: []string{k1, k2},
			write:    run("retract_external(item(k1, a))"),
			after:    []check{{k2, "[b]", 0}, {k1, "[]", 1}},
			variants: 2,
		},
		{
			name: "c: any write drops the all-wild variant and a rule procedure",
			src:  facts + " r(K, V) :- item(K, V).", load: []string{k1, "findall(V, r(k1, V), L)", all},
			write: run("assert_external(item(k3, c))", "assert_external(r(k3, d))"),
			after: []check{
				{k1, "[a]", 0},
				{"findall(V, r(k1, V), L)", "[a]", 1},
				{all, "[k1,k2,k3]", 1},
			},
			variants: 2,
		},
		{
			name: "d: a facts procedure's first rule drops every variant",
			src:  facts, load: []string{k1, k2},
			write:    run("assert_external((item(k9, V) :- V = z))"),
			after:    []check{{k1, "[a]", 1}, {k2, "[b]", 0}, {"findall(V, item(k9, V), L)", "[z]", 0}},
			variants: 1,
		},
		{
			// The stored item(X, b) unifies with the retracted item(a, b):
			// its keys, not the retract term's, name the variants it was in.
			name: "e: a source-form retract drops the variants of the clause it deleted",
			src:  "item(X, b). item(c, d).", source: true, load: []string{"findall(V, item(c, V), L)"},
			write:    run("retract_external(item(a, b))"),
			after:    []check{{"findall(V, item(c, V), L)", "[d]", 1}},
			variants: 1,
		},
		{
			name: "f: more writes than the log holds evict the procedure",
			src:  facts, load: []string{k1, k2},
			write:    run(past...),
			after:    []check{{k1, "[a]", 0}, {"findall(V, item(w0, V), L)", "[c]", 1}},
			variants: 2,
		},
		{
			name: "g: a rollback drops every variant of what it touched",
			src:  facts, load: []string{k1, k2},
			write:    run("begin, assert_external(item(k3, c)), rollback"),
			after:    []check{{k1, "[a]", 1}, {"findall(V, item(k3, V), L)", "[]", 1}},
			variants: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newSession(t, Options{})
			if tc.source {
				if err := e.SetRuleStorage(RuleStorageSource); err != nil {
					t.Fatal(err)
				}
			}
			consultExternal(tc.src)(t, e)
			if err := e.SetRuleStorage(RuleStorageCompiled); err != nil {
				t.Fatal(err)
			}
			for _, q := range tc.load {
				answers(t, e, q)
			}
			w, err := e.KB().NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			tc.write(t, w)
			for _, c := range tc.after {
				r0 := e.Cost().Retrievals
				got := values(t, e, c.q, "L")
				if retr := e.Cost().Retrievals - r0; !reflect.DeepEqual(got, []string{c.want}) || retr != c.retr {
					t.Errorf("%s: %v at %d retrievals, want %s at %d", c.q, got, retr, c.want, c.retr)
				}
			}
			if rp := e.resident[e.m.Dict.Intern("item", 2)]; rp == nil || len(rp.variants) != tc.variants {
				t.Errorf("reader holds %v, want %d variants of item/2", rp, tc.variants)
			}
		})
	}
}

// TestResidentWritesMatchModel runs a fixed-seed random schedule of stored
// writes (assert_external, retract_external, committed and rolled-back
// transactions, through the calls their builtins make) from two sessions
// over one knowledge base, interleaved with keyed, all-wild and rule reads
// in both, and compares every answer with a model. Some facts have a
// variable key, so a source-form retract can delete a clause other than the
// retract term.
func TestResidentWritesMatchModel(t *testing.T) {
	type fact struct{ k, v string }
	keys, vals := []string{"k0", "k1", "k2", "_"}, []string{"v0", "v1", "v2"}
	name := func(t term.Term) string {
		if _, ok := t.(*term.Var); ok {
			return "_"
		}
		return t.String()
	}
	for _, mode := range []RuleStorage{RuleStorageCompiled, RuleStorageSource} {
		t.Run(fmt.Sprintf("storage%d", mode), func(t *testing.T) {
			kb, err := OpenKB(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer kb.Close()
			var ss [2]*Session
			for i := range ss {
				if ss[i], err = kb.NewSession(); err != nil {
					t.Fatal(err)
				}
				defer ss[i].Close()
			}
			// Session 0 runs in mode and stores the procedures in it;
			// session 1 stays compiled, and its writes take their form.
			if err := ss[0].SetRuleStorage(mode); err != nil {
				t.Fatal(err)
			}
			consultExternal("kv(k0, v0). kv2(K, V) :- kv(K, V).")(t, ss[0])
			model := []fact{{"k0", "v0"}}
			rng := rand.New(rand.NewSource(1))
			// write draws one write, makes it in s and returns m with it
			// applied, and whether it took. A retract removes the first fact
			// the term matches: the same clause in compiled form, a unifying
			// one in source form.
			write := func(s *Session, m []fact) ([]fact, bool) {
				f := fact{keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))]}
				var k term.Term = term.Atom(f.k)
				if f.k == "_" {
					k = &term.Var{Name: "K"}
				}
				tm := term.Comp("kv", k, term.Atom(f.v))
				if rng.Intn(2) == 0 {
					if err := s.AssertExternalTerm(tm); err != nil {
						t.Fatalf("assert %s: %v", tm, err)
					}
					return append(m[:len(m):len(m)], f), true
				}
				ok, err := s.RetractExternal(tm)
				want := -1
				for i, g := range m {
					if g.v == f.v && (g.k == f.k || mode == RuleStorageSource && (g.k == "_" || f.k == "_")) {
						want = i
						break
					}
				}
				if err != nil || ok != (want >= 0) {
					t.Fatalf("retract %s: ok=%v err=%v, model %v", tm, ok, err, m)
				}
				if !ok {
					return m, false
				}
				return append(m[:want:want], m[want+1:]...), true
			}
			for step := 0; step < 1500; step++ {
				who := rng.Intn(len(ss))
				s := ss[who]
				switch op := rng.Intn(10); {
				case op < 2:
					model, _ = write(s, model)
				case op < 4: // a transaction of up to three writes
					if err := s.Begin(); err != nil {
						t.Fatal(err)
					}
					m, ok := model, true
					for n := 1 + rng.Intn(3); n > 0 && ok; n-- {
						m, ok = write(s, m)
					}
					if ok && rng.Intn(3) > 0 {
						err, model = s.Commit(), m
					} else {
						err = s.Rollback()
					}
					if err != nil {
						t.Fatal(err)
					}
				default:
					pred := []string{"kv", "kv2"}[rng.Intn(2)]
					k := keys[rng.Intn(len(keys))]
					goal := fmt.Sprintf("%s(%s, V)", pred, k)
					if k == "_" {
						goal = pred + "(K, V)"
					}
					sols, err := s.QueryAll(goal)
					if err != nil {
						t.Fatalf("step %d, session %d: %s: %v", step, who, goal, err)
					}
					var got, want []string
					for _, sol := range sols {
						if k == "_" {
							got = append(got, name(sol["K"])+"-"+name(sol["V"]))
						} else {
							got = append(got, name(sol["V"]))
						}
					}
					for _, f := range model {
						if k == "_" {
							want = append(want, f.k+"-"+f.v)
						} else if f.k == k || f.k == "_" {
							want = append(want, f.v)
						}
					}
					sort.Strings(got)
					sort.Strings(want)
					if strings.Join(got, " ") != strings.Join(want, " ") {
						t.Fatalf("step %d, session %d: %s gave %v, model %v", step, who, goal, got, want)
					}
				}
			}
		})
	}
}

// TestResidentCodeTablesStayFlat: neither re-materialising a set-at-a-time
// result nor running plain queries may grow the machine's block and
// builtin tables (before blocks were reclaimed they went 126 -> 3126
// blocks and 84 -> 1084 builtins over the first loop, each dead builtin
// pinning its tuples). Every round's assert is a new goal text, so the
// linked-query table fills up to its capacity; the baseline is read once
// more distinct goals than that have run, and must hold from there on.
// Nor may a keyed write/read loop grow them or the shared variants.
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
	const warm, rounds, full = 6, 1000, 600
	if full <= queryCacheLimit {
		t.Fatalf("baseline at round %d, before the linked-query table (%d) is full", full, queryCacheLimit)
	}
	for i := 0; i < warm; i += 2 {
		round(i)
		round(i + 1)
		plain()
		plain()
	}
	var base wam.Stats
	fixpoints := e.KB().setopsQueries.Value()
	for i := warm; i < warm+rounds; i++ {
		if i == warm+full {
			base = e.Machine().Stats()
		}
		round(i)
	}
	if got := e.KB().setopsQueries.Value() - fixpoints; got != rounds {
		t.Fatalf("%d fixpoints over %d rounds: the loop did not re-materialise", got, rounds)
	}
	flat := func(when string) {
		t.Helper()
		st := e.Machine().Stats()
		t.Logf("%s: blocks %d -> %d, builtins %d -> %d", when, base.Blocks, st.Blocks, base.Builtins, st.Builtins)
		if st.Blocks != base.Blocks || st.Builtins != base.Builtins {
			t.Errorf("code tables grew over %s: blocks %d -> %d, builtins %d -> %d",
				when, base.Blocks, st.Blocks, base.Builtins, st.Builtins)
		}
	}
	flat(fmt.Sprintf("rounds %d to %d", full, rounds))
	for i := 0; i < rounds; i++ {
		plain()
	}
	flat("the plain loop")

	// A keyed write/read loop over fixed goal texts: each write drops the
	// variants that admit it (key w's and the all-wild one) and the reads
	// reload them; those of k1 and k2, which no write admits, stay. From the
	// first round on, neither the block table nor the shared variants may
	// grow, and no procedure's write log outgrows its capacity.
	consultExternal("item(k1, a). item(k2, b).")(t, e)
	keyed := func() {
		t.Helper()
		for _, step := range []struct {
			q string
			n int
		}{
			{"assert_external(item(w, x))", 1}, {"item(k1, _)", 1}, {"item(w, _)", 1}, {"item(_, _)", 3},
			{"retract_external(item(w, x))", 1}, {"item(k2, _)", 1}, {"item(w, _)", 0}, {"item(_, _)", 2},
		} {
			if n, err := e.QueryCount(step.q); err != nil || n != step.n {
				t.Fatalf("%s: n=%d err=%v, want %d", step.q, n, err, step.n)
			}
		}
	}
	keyed()
	base, entries := e.Machine().Stats(), e.KB().cacheEntries.Value()
	for i := 0; i < rounds; i++ {
		keyed()
	}
	flat("the keyed loop")
	if got := e.KB().cacheEntries.Value(); got != entries {
		t.Errorf("shared variants %d -> %d over the keyed loop", entries, got)
	}
	for pi, sp := range e.KB().shared {
		if len(sp.log) > writeLogLen {
			t.Errorf("%s logs %d writes, capacity %d", pi, len(sp.log), writeLogLen)
		}
	}

	// A dynamic clause with a control construct links an auxiliary
	// predicate beside it; retract/1 and abolish/1 must take it away again
	// (before they did, 1000 assert/retract rounds took 140 blocks to 1140),
	// but not while a retracted clause still runs and calls it.
	dynamic := func() {
		t.Helper()
		const q = "assert((q(Y) :- (Y > 1 -> true ; fail))), retract((q(_) :- _)), " +
			"assert((q(Y) :- retract((q(_) :- _)), (Y > 1 -> true ; fail))), q(2), " +
			"assert((q(Y) :- (Y > 1 -> true ; fail))), abolish(q/1)"
		if n, err := e.QueryCount(q); err != nil || n != 1 {
			t.Fatalf("%s: n=%d err=%v", q, n, err)
		}
	}
	dynamic()
	base = e.Machine().Stats()
	for i := 0; i < rounds; i++ {
		dynamic()
	}
	flat("the assert/retract loop")
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
		"if-then-else clause": func(t *testing.T, e *Session) {
			// The control construct adds no name to the dictionary.
			const q = "assert((c(X) :- (X > 1 -> true ; fail))), retract((c(_) :- _))"
			var live int
			for i := 1; i <= n; i++ {
				if c, err := e.QueryCount(q); err != nil || c != 1 {
					t.Fatalf("%s: n=%d err=%v", q, c, err)
				}
				if i == 1 {
					live = e.Machine().Dict.Stats().Live
				}
			}
			if got := e.Machine().Dict.Stats().Live; got != live {
				t.Fatalf("dictionary %d -> %d live names over %d rounds", live, got, n-1)
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

// TestResidentHybridAuxiliaries: a source-form procedure reached from
// compiled execution is compiled at the trap, and the auxiliaries of its
// control constructs live exactly as long as its resident code: a later
// query reusing that code finds them (they used to be dropped at query
// end), and relinking after each invalidation adds no blocks.
func TestResidentHybridAuxiliaries(t *testing.T) {
	e := newSession(t, Options{RuleStorage: RuleStorageSource})
	consultExternal("h(X, Y) :- (X > 1 -> Y = big ; Y = small).")(t, e)
	if err := e.SetRuleStorage(RuleStorageCompiled); err != nil {
		t.Fatal(err)
	}
	var base int
	for i := 0; i < 200; i++ {
		for run := 0; run < 2; run++ {
			if got := values(t, e, "h(2, Y)", "Y"); !reflect.DeepEqual(got, []string{"big"}) {
				t.Fatalf("round %d, run %d: %v", i, run, got)
			}
		}
		e.InvalidateLoaded("h", 2)
		if i == 20 {
			base = e.Machine().Stats().Blocks
		}
	}
	if got := e.Machine().Stats().Blocks; got != base {
		t.Fatalf("blocks %d -> %d over 180 relinks", base, got)
	}
}

// answers runs q to exhaustion and renders its solutions in order.
func answers(t *testing.T, e *Session, q string) string {
	t.Helper()
	sols, err := e.QueryAll(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return fmt.Sprint(sols)
}

// noLink runs run and fails t if it spent parse, compile or link time on e.
func noLink(t *testing.T, e *Session, what string, run func()) {
	t.Helper()
	before := e.Cost().Phases
	run()
	after := e.Cost().Phases
	for _, p := range []obs.Phase{obs.PhaseParse, obs.PhaseCompile, obs.PhaseLink} {
		if spent := after.Get(p) - before.Get(p); spent != 0 {
			t.Errorf("%s spent %v in %s", what, spent, p)
		}
	}
}

// queryProcs lists the $query procedures installed in e's machine.
func queryProcs(e *Session) []string {
	var out []string
	e.Machine().Procs(func(p *wam.Proc) bool {
		if d := e.Machine().Dict; d.Name(p.Fn) == "$query" {
			out = append(out, fmt.Sprintf("$query/%d", d.Arity(p.Fn)))
		}
		return true
	})
	return out
}

// TestResidentQueryRepeatedGoal: the second run of a goal text returns the
// same answers from the linked code the first run left, with no parse,
// compile or link time. A new text that is one call of a known procedure
// spends none on its first run either: it runs as that call, with no
// $query code of its own.
func TestResidentQueryRepeatedGoal(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(1). f(2). f(3). g(X, Y) :- f(X), Y is X * 10.")(t, e)
	const q = "g(X, Y), X > 1"
	first := answers(t, e, q)
	lq := e.queries[q]
	noLink(t, e, "the second run", func() {
		if again := answers(t, e, q); again != first {
			t.Fatalf("second run %s, first %s", again, first)
		}
	})
	if e.queries[q] != lq || len(e.queries) != 1 || lq.proc == nil {
		t.Fatalf("second run relinked the goal (table %v)", e.queryOrder)
	}

	for _, tc := range []struct{ q, v, want string }{
		{"g(2, Y)", "Y", "20"},
		{"g(3, Y)", "Y", "30"},
		{"g(X, 10)", "X", "1"},
	} {
		noLink(t, e, tc.q, func() {
			if got := values(t, e, tc.q, tc.v); !reflect.DeepEqual(got, []string{tc.want}) {
				t.Fatalf("%s: %v, want %s", tc.q, got, tc.want)
			}
		})
		if lq := e.queries[tc.q]; lq == nil || lq.proc != nil {
			t.Fatalf("%s is not a direct call", tc.q)
		}
	}
	if got := queryProcs(e); !reflect.DeepEqual(got, []string{"$query/2"}) {
		t.Fatalf("installed %v, want only the first goal's $query/2", got)
	}
}

// TestResidentQueryNotLifted: a text the reader might take otherwise than
// as one call with one-token arguments, or one that calls a builtin or a
// control construct, links its own $query code, and answers as it did when
// every text was linked ("error": a syntax error).
func TestResidentQueryNotLifted(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal(`p(a, 1). p(b, -1). p('A b', 2). p(1.5, 3). p([0'a, 0'b], 4). p(a, "ab"). q(a). foo.`)(t, e)
	pa := "[map[X:1] map[X:[97,98]]]"
	linked := map[*wam.Proc]string{}
	for _, tc := range []struct{ q, want string }{
		{"p('a', X)", pa},
		{"p('A b', X)", "[map[X:2]]"},
		{"p(X, -1)", "[map[X:b]]"},
		{"p(X, - 1)", "[]"},
		{"p(1.5, X)", "[map[X:3]]"},
		{"p(1.0e0, X)", "[]"},
		{`p("ab", X)`, "[map[X:4]]"},
		{`p(a, "ab")`, "[map[]]"},
		{"p(0'a, X)", "[]"},
		{"p(0x1, X)", "[]"},
		{"p(X, 0b1)", "[map[X:a]]"},
		{"p (a, X)", "error"},
		{"atom_length(abc, N)", "[map[N:3]]"},
		{"call(foo)", "[map[]]"},
		{"call(p, a, X)", pa},
		{`\+ p(a, 2)`, "[map[]]"},
		{"not(q(b))", "[map[]]"},
		{"findall(a, q(a), L)", "[map[L:[a]]]"},
		{"once(q(X))", "[map[X:a]]"},
		{"p(a /* comment */, X)", pa},
		{"p(a, X) % comment", "error"},
		{"p(a, X).", pa},
		{"p(a, X), q(b)", "[]"},
		{"p(f(a), X)", "[]"},
		{"p([a], X)", "[]"},
		{"p(ä, X)", "[]"},
		{"p(99999999999999999999, X)", "[]"},
	} {
		for run := 0; run < 2; run++ {
			sols, err := e.QueryAll(tc.q)
			got := fmt.Sprint(sols)
			if err != nil {
				got = "error"
			}
			if got != tc.want {
				t.Fatalf("%s, run %d: %s (err %v), want %s", tc.q, run, got, err, tc.want)
			}
		}
		switch lq := e.queries[tc.q]; {
		case lq == nil && tc.want != "error":
			t.Errorf("%s is not in the table", tc.q)
		case lq == nil:
		case lq.proc == nil:
			t.Errorf("%s runs as a direct call", tc.q)
		case linked[lq.proc] != "":
			t.Errorf("%s runs the $query code %s linked", tc.q, linked[lq.proc])
		default:
			linked[lq.proc] = tc.q
		}
	}
	// A text that is one call of a procedure runs as that call.
	if got := values(t, e, "p(b, X)", "X"); !reflect.DeepEqual(got, []string{"-1"}) || e.queries["p(b, X)"].proc != nil {
		t.Fatalf("p(b, X): %v, direct %v", got, e.queries["p(b, X)"].proc == nil)
	}
}

// TestResidentQueryShapeLifetime: the $query code of a text that is not one
// call goes when the text leaves the table, so the block table is flat over
// cycles that refill it; op/3 and Close empty the table.
func TestResidentQueryShapeLifetime(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.Consult("p(a, 1). p(b, 2). p(c, 3)."); err != nil {
		t.Fatal(err)
	}
	fillers := 0
	fill := func(n int) {
		for ; n > 0; n-- {
			answers(t, e, fmt.Sprintf("X = k%d", fillers))
			fillers++
		}
	}
	const q = "p(X, N), N > 1"
	var first int
	for cycle := 0; cycle < 3; cycle++ {
		if got := values(t, e, q, "X"); !reflect.DeepEqual(got, []string{"b", "c"}) {
			t.Fatalf("cycle %d: %s gave %v", cycle, q, got)
		}
		p := e.queries[q].proc
		fill(queryCacheLimit)
		if e.queries[q] != nil || len(e.queries) != queryCacheLimit {
			t.Fatalf("cycle %d: %s kept %v, %d texts", cycle, q, e.queries[q] != nil, len(e.queries))
		}
		if e.Machine().Proc(p.Fn) == p {
			t.Fatalf("cycle %d: the evicted text's %s stays installed", cycle, e.Machine().Dict.Name(p.Fn))
		}
		if blocks := e.Machine().Stats().Blocks; cycle == 0 {
			first = blocks
		} else if blocks != first {
			t.Fatalf("cycle %d: blocks %d, %d after the first; an evicted text's code stayed", cycle, blocks, first)
		}
	}

	// op/3 and Close empty the table, direct calls and linked texts alike.
	answers(t, e, "p(a, X)")
	answers(t, e, q)
	if err := e.Consult(":- op(700, xfx, ~>)."); err != nil {
		t.Fatal(err)
	}
	if len(e.queries) != 0 || len(e.queryOrder) != 0 {
		t.Fatalf("op/3 left %d texts", len(e.queries))
	}
	answers(t, e, "p(a, X)")
	answers(t, e, q)
	e.Close()
	if len(e.queries) != 0 || len(queryProcs(e)) != 0 {
		t.Fatalf("Close left %d texts, %v", len(e.queries), queryProcs(e))
	}
}

// TestResidentQueryShapesStayFlat: a stream of distinct goal texts that are
// each one call, term_cold's pattern, links no code: the block table after
// the last round is what it was after the first, and no $query procedure is
// defined.
func TestResidentQueryShapesStayFlat(t *testing.T) {
	e := newSession(t, Options{})
	var kb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&kb, "item(k%d, g%d, %d, t).\n", i, i%7, i)
	}
	if err := e.Consult(kb.String()); err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 10, 1000
	var first int
	for r := 0; r < rounds; r++ {
		for i := r * perRound; i < (r+1)*perRound; i++ {
			want := 0
			if i < 100 {
				want = 1
			}
			if n, err := e.QueryCount(fmt.Sprintf("item(k%d, G, V, Tag)", i)); err != nil || n != want {
				t.Fatalf("item(k%d, G, V, Tag): n=%d err=%v, want %d", i, n, err, want)
			}
		}
		if r == 0 {
			first = e.Machine().Stats().Blocks
		}
	}
	if got := e.Machine().Stats().Blocks; got != first || len(e.queries) != queryCacheLimit {
		t.Fatalf("blocks %d after the first round, %d after the last; %d texts", first, got, len(e.queries))
	}
	if got := queryProcs(e); len(got) != 0 {
		t.Fatalf("one-call goals defined %v", got)
	}
}

// TestResidentQueryOpDirective: an op/3 directive changes how a goal text
// reads, so it drops every linked query; the same text is read afresh
// under each operator table.
func TestResidentQueryOpDirective(t *testing.T) {
	e := newSession(t, Options{})
	const q = "X = (a ~> b ~> c), X = (L ~> _), atom(L)"
	for _, step := range []struct {
		op   string
		want int // solutions; -1: syntax error
	}{
		{"", -1},
		{":- op(700, xfy, ~>).", 1}, // a ~> (b ~> c): L = a
		{":- op(700, yfx, ~>).", 0}, // (a ~> b) ~> c: L is compound
		{":- op(0, yfx, ~>).", -1},
	} {
		if step.op != "" {
			if err := e.Consult(step.op); err != nil {
				t.Fatal(err)
			}
		}
		for run := 0; run < 2; run++ {
			n, err := e.QueryCount(q)
			if step.want < 0 && err == nil || step.want >= 0 && (err != nil || n != step.want) {
				t.Fatalf("after %q, run %d: n=%d err=%v, want %d solutions (-1: error)", step.op, run, n, err, step.want)
			}
		}
	}
}

// TestResidentQueryAuxiliaries: goals whose control constructs compile to
// auxiliary procedures answer the same on every run from the table, and
// repeating them adds no code.
func TestResidentQueryAuxiliaries(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("p(1). p(2). p(3).")(t, e)
	for name, q := range map[string]string{
		"disjunction":  "(p(X) ; X = 4), X > 1",
		"if-then-else": "p(X), (X > 1 -> V = big ; V = small)",
		"negation":     `p(X), \+ X = 2`,
		"findall":      "findall(X, (p(X) ; X = 0), L)",
		"catch":        "catch((p(X), X > 1, throw(found(X))), found(V), true)",
	} {
		t.Run(name, func(t *testing.T) {
			first := answers(t, e, q)
			base := e.Machine().Stats().Blocks
			for i := 0; i < 1000; i++ {
				if got := answers(t, e, q); got != first {
					t.Fatalf("run %d: %s, first run %s", i+2, got, first)
				}
			}
			if got := e.Machine().Stats().Blocks; got != base {
				t.Fatalf("blocks %d -> %d over 1000 runs of one goal", base, got)
			}
		})
	}
}

// TestResidentQuerySeesChangedDefinitions: the cached code of a goal calls
// its procedures by name, so the next run sees an assert/1 on a dynamic
// predicate and another session's write to a stored procedure.
func TestResidentQuerySeesChangedDefinitions(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(1).")(t, e)
	answers(t, e, "assert(d(1))")
	other, err := e.KB().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for _, tc := range []struct {
		by       *Session
		write, q string
		was, is  string
	}{
		{e, "assert(d(2))", "findall(X, d(X), L)", "[1]", "[1,2]"},
		{other, "assert_external(f(2))", "findall(X, f(X), L)", "[1]", "[1,2]"},
	} {
		if got := values(t, e, tc.q, "L"); !reflect.DeepEqual(got, []string{tc.was}) {
			t.Fatalf("%s before %s: %v, want %s", tc.q, tc.write, got, tc.was)
		}
		answers(t, tc.by, tc.write)
		if got := values(t, e, tc.q, "L"); !reflect.DeepEqual(got, []string{tc.is}) {
			t.Errorf("%s after %s: %v, want %s", tc.q, tc.write, got, tc.is)
		}
	}
}

// TestResidentQueryFailuresNotCached: a goal that does not parse or
// compile leaves nothing in the table, and every run reports its error —
// as does a goal that links but calls an unknown procedure.
func TestResidentQueryFailuresNotCached(t *testing.T) {
	e := newSession(t, Options{})
	for _, tc := range []struct{ q, err string }{
		{"p(", "parser"},
		{"X = 1, 42", "not a callable goal"},
		{"no_such_predicate(1)", "existence_error"},
	} {
		for run := 0; run < 3; run++ {
			if _, err := e.QueryAll(tc.q); err == nil || !containsSub(err.Error(), tc.err) {
				t.Fatalf("%s, run %d: err=%v, want %q", tc.q, run, err, tc.err)
			}
		}
	}
	if len(e.queries) != 1 || e.queries["no_such_predicate(1)"] == nil {
		t.Fatalf("table holds %v, want only the goal that linked", e.queryOrder)
	}
}

// TestResidentQueryEviction: one goal past the capacity evicts the oldest,
// which still answers when asked again (and evicts the next oldest).
func TestResidentQueryEviction(t *testing.T) {
	e := newSession(t, Options{})
	goal := func(i int) string { return fmt.Sprintf("X = k%d", i) }
	for i := 0; i <= queryCacheLimit; i++ {
		answers(t, e, goal(i))
	}
	if len(e.queries) != queryCacheLimit || e.queries[goal(0)] != nil || e.queries[goal(1)] == nil {
		t.Fatalf("%d entries after %d goals; oldest evicted: %v", len(e.queries), queryCacheLimit+1, e.queries[goal(0)] == nil)
	}
	if got := values(t, e, goal(0), "X"); !reflect.DeepEqual(got, []string{"k0"}) {
		t.Fatalf("evicted goal answers %v", got)
	}
	if e.queries[goal(0)] == nil || e.queries[goal(1)] != nil || len(e.queries) != queryCacheLimit {
		t.Fatal("re-asking the evicted goal did not replace the next oldest")
	}
}

// TestResidentQuerySourceMode: the baseline interpreter reads the goal
// text on every run and never uses the table.
func TestResidentQuerySourceMode(t *testing.T) {
	e := newSession(t, Options{RuleStorage: RuleStorageSource})
	consultExternal("f(1). f(2). g(X) :- f(X), X > 1.")(t, e)
	const q = "g(X)"
	first := answers(t, e, q)
	before := e.Cost().Phases[obs.PhaseParse]
	if again := answers(t, e, q); again != first {
		t.Fatalf("second run %s, first %s", again, first)
	}
	if e.Cost().Phases[obs.PhaseParse] == before {
		t.Error("second run did not parse the goal")
	}
	if len(e.queries) != 0 {
		t.Fatalf("source mode linked %v", e.queryOrder)
	}
}

// TestAssertKeepsProcedureForm: a compiled-mode session asserting into a
// source-form procedure stores the clause as source text, so it reads
// back in both rule-storage modes; a code blob among the texts would not
// parse.
func TestAssertKeepsProcedureForm(t *testing.T) {
	src := newSession(t, Options{})
	if err := src.SetRuleStorage(RuleStorageSource); err != nil {
		t.Fatal(err)
	}
	consultExternal("color(red). shade(X) :- color(X).")(t, src)
	comp, err := src.KB().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	if _, err := comp.QueryAll("assert_external(color(blue))"); err != nil {
		t.Fatal(err)
	}
	if p := src.KB().DB().Proc("color", 1); p == nil || p.Form != edb.FormSource {
		t.Fatalf("color/1 is %+v, want source form", p)
	}
	for name, s := range map[string]*Session{"source": src, "compiled": comp} {
		for _, q := range []string{"findall(X, color(X), L)", "findall(X, shade(X), L)"} {
			if got := values(t, s, q, "L"); !reflect.DeepEqual(got, []string{"[red,blue]"}) {
				t.Errorf("%s mode: %s gave %v, want [red,blue]", name, q, got)
			}
		}
	}
}

// TestAssertLinksAtCall: asserts only write the session's own clause list,
// so 1000 of them spend no link time and leave the predicate uninstalled;
// its first call links it once, as one block, and answers every clause.
func TestAssertLinksAtCall(t *testing.T) {
	const n = 1000
	e := newSession(t, Options{})
	fn := e.Machine().Dict.Intern("d", 1)
	noLink(t, e, "the asserts", func() {
		for i := 0; i < n; i++ {
			if err := e.AssertTerm(term.Comp("d", term.Int(i)), false); err != nil {
				t.Fatal(err)
			}
		}
	})
	if p := e.Machine().Proc(fn); p != nil {
		t.Fatalf("d/1 installed after the asserts: %s", p.Block.Name)
	}
	blocks := e.Machine().Stats().Blocks
	if c, err := e.QueryCount("d(X)"); err != nil || c != n {
		t.Fatalf("d(X): %d answers, %v; want %d", c, err, n)
	}
	if got := e.Machine().Stats().Blocks; got != blocks+1 {
		t.Fatalf("block table %d -> %d at the first call, want one block more", blocks, got)
	}
	if e.Machine().Proc(fn) == nil {
		t.Fatal("d/1 not installed by its first call")
	}
}
