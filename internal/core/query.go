package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// Solutions iterates over the answers of one query, each read where it
// lies: Binding decodes one variable of the current solution, found by its
// position in Vars, and Map returns a fresh map of them all, which the
// caller may keep. A binding is readable until the next Next or Close, or
// the next query on the session, which also makes this Solutions inert:
// Next returns false, Close does nothing, and Binding and Map give nil, as
// they do before the first solution and after the last.
//
// The query ends, traced and its per-query state released, exactly once:
// on Close, on a Next error, when the iteration is exhausted, or, for an
// iterator abandoned early without Close, at the next Query on the
// session or its Close.
type Solutions struct {
	e     *Session
	qid   uint64 // the session's query this handle iterates
	names []string
	err   error
	done  bool // per-query state released
	on    bool // positioned on a solution

	// The current solution, by position in names: in compiled mode the
	// answer cells (up to six fit argBuf, so a query is one allocation),
	// in source mode the values gen delivered.
	run    wam.Run
	args   []wam.Cell
	argBuf [6]wam.Cell
	gen    *interpGen
}

// Query parses and runs a goal, returning a Solutions iterator. The query
// executes on the WAM in compiled mode, or on the resolution interpreter
// in baseline (source) mode. In compiled mode a text that is one call of a
// procedure runs as that call, with no code of its own, and any other
// text's linked $query code is kept and reused (see resident.go). Each
// query starts from a fresh view of the shared knowledge base: code another
// session invalidated since the last query is dropped and reloaded on use.
// The query runs inside the session's resource envelope (see envelope.go).
func (s *Session) Query(q string) (*Solutions, error) { return s.query(nil, q) }

// query is Query under ctx (nil: none).
func (s *Session) query(ctx context.Context, q string) (sol *Solutions, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, s.containPanic(r)
			s.autoRollback()
		}
		if sol == nil {
			s.endQuery()
		}
	}()
	s.endQuery()
	s.reconcile()
	s.beginQuery(q)
	s.arm(ctx)
	if s.opts.RuleStorage == RuleStorageSource {
		body, vars, names, err := s.parseQuery(q)
		if err != nil {
			return nil, err
		}
		s.gen = newInterpGen(s.in, body, vars, names)
		return &Solutions{e: s, qid: s.qid, names: names, gen: s.gen}, nil
	}
	lq, err := s.linkQuery(q)
	if err != nil {
		return nil, err
	}
	s.m.Reset()
	sol = &Solutions{e: s, qid: s.qid, names: lq.names}
	sol.args = sol.argBuf[:0]
	for range lq.names {
		sol.args = append(sol.args, wam.MakeRef(s.m.NewVar()))
	}
	call := sol.args // $query/N's, in names order
	if lq.proc == nil {
		call = s.callArgs[:0]
		for _, c := range lq.args {
			if c.Tag() == wam.TagRef {
				c = sol.args[c.Val()]
			}
			call = append(call, c)
		}
		s.callArgs = call
	}
	s.m.Call(&sol.run, lq.fn, call)
	return sol, nil
}

// parseQuery reads goal text q: the goal, its variables, their sorted names.
func (s *Session) parseQuery(q string) (term.Term, map[string]*term.Var, []string, error) {
	t0 := time.Now()
	body, vars, err := parser.ParseTermWithOps(q, s.ops)
	s.q.Phases.Add(obs.PhaseParse, time.Since(t0))
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return body, vars, names, nil
}

// directCall returns the entry of goal text q when q is one call of a
// procedure, name(a1, ..., an) with each ai an unquoted [a-z][A-Za-z0-9_]*
// atom, an unsigned decimal integer in the WAM's range or a variable not
// starting with '_' (see DESIGN §6, "Linked queries"), and nil otherwise.
func (s *Session) directCall(q string) *linkedQuery {
	i := span(q, 0, layout)
	j := span(q, i, alnum)
	if j == i || q[i] < 'a' || q[i] > 'z' || j == len(q) || q[j] != '(' {
		return nil
	}
	name, lq := q[i:j], &linkedQuery{}
	lq.names, lq.args = lq.nameBuf[:0], lq.argBuf[:0]
	for i = j; q[i] != ')'; { // q[i] is the '(' or ',' before an argument
		j = span(q, i+1, layout)
		k := span(q, j, alnum)
		if k == j || q[j] == '_' {
			return nil
		}
		switch a := q[j:k]; {
		case a[0] >= 'a':
			lq.args = append(lq.args, wam.MakeCon(s.m.Dict.Intern(a, 0)))
		case a[0] <= '9':
			v, err := strconv.ParseInt(a, 10, 64)
			if err != nil || !wam.CheckInt(v) {
				return nil
			}
			lq.args = append(lq.args, wam.MakeInt(v))
		default: // a variable: the names stay sorted, the references with them
			n, seen := slices.BinarySearch(lq.names, a)
			if !seen {
				lq.names = slices.Insert(lq.names, n, a)
				for x, c := range lq.args {
					if c.Tag() == wam.TagRef && c.Val() >= n {
						lq.args[x] = wam.MakeRef(c.Val() + 1)
					}
				}
			}
			lq.args = append(lq.args, wam.MakeRef(n))
		}
		if i = span(q, k, layout); i == len(q) || q[i] != ',' && q[i] != ')' {
			return nil
		}
	}
	if span(q, i+1, layout) != len(q) || s.m.BuiltinIndex(name, len(lq.args)) >= 0 || controlGoals[name] {
		return nil
	}
	lq.fn = s.m.Dict.Intern(name, len(lq.args))
	return lq
}

// controlGoals call a goal argument; a text calling one is always compiled.
var controlGoals = map[string]bool{"call": true, "not": true, "once": true, "ignore": true,
	"forall": true, "findall": true, "bagof": true, "setof": true, "aggregate_all": true, "transaction": true}

const layout, alnum = " \t\n\r", "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"

// span returns the end of the run of bytes of set that starts at q[i].
func span(q string, i int, set string) int { return len(q) - len(strings.TrimLeft(q[i:], set)) }

// Next advances to the next solution, returning false when exhausted or
// on error (check Err). Exhaustion and errors release per-query state.
//
// The time spent resolving is charged to the exec phase. Dynamic-loader
// work triggered from inside execution (an undefined-procedure trap
// fetching, decoding and linking stored code) is charged to its own
// phases, so exec overlaps edb_fetch/preunify/link/gc; elapsed wall time
// is reported separately in the query trace event.
func (s *Solutions) Next() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = s.fail(s.e.containPanic(r))
		}
	}()
	s.on = false
	if s.done || s.qid != s.e.qid {
		return false
	}
	var err error
	t0 := time.Now()
	if s.gen != nil {
		ok, err = s.gen.next()
	} else {
		ok, err = s.run.Next()
	}
	s.e.q.Phases.Add(obs.PhaseExec, time.Since(t0))
	if err != nil {
		return s.fail(err)
	}
	if !ok {
		s.finish()
		return false
	}
	s.e.qSolCount++
	s.on = true
	return true
}

// fail ends the iteration on err: the open transaction, if any, is rolled
// back and per-query state released. It returns false for Next to return.
func (s *Solutions) fail(err error) bool {
	s.err = s.e.cause(err) // before finish closes the envelope
	s.e.autoRollback()
	s.finish()
	return false
}

// Binding returns the current solution's value for the named variable,
// decoding that variable alone; nil if the name is not one of Vars or no
// solution is current.
func (s *Solutions) Binding(name string) term.Term {
	i, found := slices.BinarySearch(s.names, name)
	switch {
	case !found || !s.on || s.qid != s.e.qid:
		return nil
	case s.gen != nil:
		return s.gen.vals[i]
	}
	return s.e.m.DecodeTerm(s.args[i])
}

// Map returns a fresh map of the current solution's bindings, which the
// caller may keep; nil if no solution is current. A variable two bindings
// share is one *term.Var in both.
func (s *Solutions) Map() map[string]term.Term {
	if !s.on || s.qid != s.e.qid {
		return nil
	}
	var vals []term.Term
	if s.gen != nil {
		vals = s.gen.vals
	} else {
		vals = s.e.m.DecodeTerms(s.args)
	}
	m := make(map[string]term.Term, len(s.names))
	for i, n := range s.names {
		m[n] = vals[i]
	}
	return m
}

// Vars lists the query's variable names in sorted order. The slice is
// shared with every run of the same goal text: read it, never modify it.
func (s *Solutions) Vars() []string { return s.names }

// Err reports the first error encountered.
func (s *Solutions) Err() error { return s.err }

// Close abandons the query and releases per-query state. Safe to call
// multiple times and after exhaustion; a no-op once a newer query started.
func (s *Solutions) Close() {
	if s.qid == s.e.qid {
		s.finish()
	}
}

// containPanic converts a runtime panic escaping query execution into
// a Prolog error term, so one query tripping an engine bug surfaces as
// an error on that query instead of killing every session sharing the
// process. The recovered value is preserved in the term; the machine's
// transient state is abandoned (the next Query resets it).
func (s *Session) containPanic(r any) error {
	s.kb.panicsRecovered.Inc()
	return &wam.ErrBall{Term: term.Comp("error",
		term.Comp("system_error", term.Atom(fmt.Sprint(r))),
		term.Atom("educe"))}
}

// beginQuery opens a query, stamping its identity for tracing; endQuery
// ends it.
func (s *Session) beginQuery(goal string) {
	s.qOpen, s.qProf = true, nil
	s.qid = s.kb.nextQueryID()
	s.qGoal = goal
	s.qStart = time.Now()
	s.qSolCount = 0
}

// slowQueryTopN bounds the per-predicate rows in a slow-query record.
const slowQueryTopN = 5

// traceQuery drains the query's profile, emits the completed query's
// span and summary events and, when the query's wall time reached the
// armed slow threshold, one slow_query diagnostic record.
func (s *Session) traceQuery() {
	s.drainProfile()
	elapsed := time.Since(s.qStart)
	if !s.tracer.Enabled() {
		return
	}
	mode := "compiled"
	if s.opts.RuleStorage == RuleStorageSource {
		mode = "source"
	}
	ev := obs.QueryEvent{
		SessionID: s.id,
		QueryID:   s.qid,
		Goal:      s.qGoal,
		Mode:      mode,
		Solutions: s.qSolCount,
		Elapsed:   elapsed,
		Stats:     s.q,
	}
	s.tracer.TraceQuery(ev)
	if s.slowThresh > 0 && elapsed >= s.slowThresh {
		rows := make([]obs.PredProfile, 0, len(s.qProf))
		for pred, c := range s.qProf {
			rows = append(rows, obs.PredProfile{Pred: pred, PredCounters: *c})
		}
		s.tracer.TraceSlowQuery(obs.SlowQueryEvent{
			QueryEvent: ev,
			Threshold:  s.slowThresh,
			TopPreds:   obs.TopBySelfTime(rows, slowQueryTopN),
			Paths:      obs.PathProfiles(&s.q),
		})
	}
}

// finish marks the iteration done and releases per-query state exactly
// once.
func (s *Solutions) finish() {
	if s.done {
		return
	}
	s.done, s.on = true, false
	s.e.endQuery()
}

// QueryAll runs a query to exhaustion, returning all binding maps.
func (s *Session) QueryAll(q string) ([]map[string]term.Term, error) {
	sol, err := s.Query(q)
	if err != nil {
		return nil, err
	}
	defer sol.Close()
	var out []map[string]term.Term
	for sol.Next() {
		out = append(out, sol.Map())
	}
	return out, sol.Err()
}

// QueryCount counts a query's solutions.
func (s *Session) QueryCount(q string) (int, error) {
	sol, err := s.Query(q)
	if err != nil {
		return 0, err
	}
	defer sol.Close()
	n := 0
	for sol.Next() {
		n++
	}
	return n, sol.Err()
}

// QueryOnce reports whether the query has at least one solution, with its
// bindings.
func (s *Session) QueryOnce(q string) (map[string]term.Term, bool, error) {
	sol, err := s.Query(q)
	if err != nil {
		return nil, false, err
	}
	defer sol.Close()
	ok := sol.Next()
	return sol.Map(), ok, sol.Err()
}

// interpGen adapts the interpreter's push-style enumeration to the
// pull-style Solutions iterator with a worker goroutine. The worker runs
// only while the session's goroutine waits in next or stop, so the two
// never touch the session at the same time.
type interpGen struct {
	sols    chan []term.Term
	resume  chan bool
	vals    []term.Term // the solution next delivered last
	err     error       // the enumeration's end, set before sols closes
	stopped bool
}

// newInterpGen starts a worker enumerating goal's solutions, each the
// values of vars in names order with fresh variables for the unbound
// ones, parked until the first next.
func newInterpGen(in *interp.Interp, goal term.Term, vars map[string]*term.Var, names []string) *interpGen {
	g := &interpGen{sols: make(chan []term.Term), resume: make(chan bool)}
	go func() {
		defer close(g.sols)
		if !<-g.resume {
			return
		}
		g.err = in.Solve(goal, interp.NewEnv(), func(e *interp.Env) bool {
			sol := make([]term.Term, len(names))
			for i, n := range names {
				sol[i] = e.ResolveDeep(vars[n])
			}
			g.sols <- term.Fresh(sol)
			return <-g.resume
		})
	}()
	return g
}

func (g *interpGen) next() (bool, error) {
	if g.stopped {
		return false, nil
	}
	g.resume <- true
	var ok bool
	g.vals, ok = <-g.sols
	if !ok {
		g.stopped = true
		return false, g.err
	}
	return true, nil
}

// stop cancels the enumeration and waits for the worker, parked before the
// first solution or on a delivered one, to unwind: the session's next query
// runs on the same interpreter. A nil g has nothing to stop.
func (g *interpGen) stop() {
	if g != nil && !g.stopped {
		g.resume <- false
		for range g.sols {
		}
		g.stopped = true
	}
}
