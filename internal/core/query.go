package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// Solutions iterates over the answers of one query. Starting a new query
// on the same session invalidates any live Solutions.
//
// Per-query state (baseline asserted rules and fact caches) is
// released exactly once — on Close, on a Next error, or when the
// iteration is exhausted — so abandoning an iterator early without
// calling Close leaks nothing beyond the current query's footprint,
// which the next Query on the session reclaims.
type Solutions struct {
	e        *Session
	names    []string
	err      error
	done     bool
	released bool
	cur      map[string]term.Term

	// compiled (WAM) execution
	run  *wam.Run
	args []wam.Cell

	// baseline (interpreter) execution
	gen *interpGen
}

// Query parses and runs a goal, returning a Solutions iterator. The query
// executes on the WAM in compiled mode, or on the resolution interpreter
// in baseline (source) mode. In compiled mode the session keeps the
// linked code of each goal text, so asking the same text again skips
// parsing, compiling and linking (see resident.go). Each query starts
// from a fresh view of the shared knowledge base: code another session
// invalidated since the last query is dropped and reloaded on use. The
// query runs inside the session's resource envelope (see envelope.go).
func (s *Session) Query(q string) (*Solutions, error) { return s.query(nil, q) }

// query is Query under ctx (nil: none).
func (s *Session) query(ctx context.Context, q string) (sol *Solutions, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, s.containPanic(r)
			s.autoRollback()
		}
		if sol == nil {
			s.disarm()
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
		return &Solutions{
			e:     s,
			names: names,
			gen:   newInterpGen(s.in, body, vars),
		}, nil
	}
	lq, err := s.linkQuery(q)
	if err != nil {
		return nil, err
	}
	s.m.Reset()
	args := make([]wam.Cell, len(lq.names))
	for i := range args {
		args[i] = wam.MakeRef(s.m.NewVar())
	}
	return &Solutions{
		e:     s,
		names: lq.names,
		run:   s.m.Call(s.m.Dict.Intern("$query", len(args)), args),
		args:  args,
	}, nil
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
	if s.done {
		return false
	}
	if s.run != nil {
		t0 := time.Now()
		ok, err := s.run.Next()
		s.e.q.Phases.Add(obs.PhaseExec, time.Since(t0))
		if err != nil {
			return s.fail(err)
		}
		if !ok {
			s.finish()
			return false
		}
		s.e.qSolCount++
		s.cur = map[string]term.Term{}
		for i, n := range s.names {
			s.cur[n] = s.e.m.DecodeTerm(s.args[i])
		}
		return true
	}
	t0 := time.Now()
	sol, ok, err := s.gen.next()
	s.e.q.Phases.Add(obs.PhaseExec, time.Since(t0))
	if err != nil {
		return s.fail(err)
	}
	if !ok {
		s.finish()
		return false
	}
	s.e.qSolCount++
	s.cur = sol
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

// Binding returns the current solution's value for the named variable.
func (s *Solutions) Binding(name string) term.Term { return s.cur[name] }

// Map returns the current solution's full binding map.
func (s *Solutions) Map() map[string]term.Term { return s.cur }

// Vars lists the query's variable names in sorted order. The slice is
// shared with every later run of the same goal text: read it, never
// modify it.
func (s *Solutions) Vars() []string { return s.names }

// Err reports the first error encountered.
func (s *Solutions) Err() error { return s.err }

// Close abandons the query and releases per-query state. Safe to call
// multiple times and after exhaustion.
func (s *Solutions) Close() {
	s.finish()
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

// beginQuery rolls the previous query's (and any between-query consult
// work's) cost stats into the session cumulative, then stamps the new
// query's identity for tracing. Profiler counters left over from an
// abandoned query are drained (attributed to that query) before the
// per-query profile resets.
func (s *Session) beginQuery(goal string) {
	s.drainProfile()
	s.qProf = nil
	s.cum.AddQuery(&s.q)
	s.q.Reset()
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
	s.done = true
	if s.released {
		return
	}
	s.released = true
	s.e.disarm()
	if s.gen != nil {
		s.gen.stop()
	}
	s.e.traceQuery()
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
	if sol.Next() {
		return sol.Map(), true, sol.Err()
	}
	return nil, false, sol.Err()
}

// interpGen adapts the interpreter's push-style enumeration to the
// pull-style Solutions iterator with a worker goroutine, started by the
// first next. The worker runs only while the session's goroutine waits in
// next or stop, so the two never touch the session at the same time.
type interpGen struct {
	solve   func() // the worker's body
	sols    chan map[string]term.Term
	resume  chan bool
	errCh   chan error
	started bool
	stopped bool
}

func newInterpGen(in *interp.Interp, goal term.Term, vars map[string]*term.Var) *interpGen {
	g := &interpGen{
		sols:   make(chan map[string]term.Term),
		resume: make(chan bool),
		errCh:  make(chan error, 1),
	}
	g.solve = func() {
		err := in.Solve(goal, interp.NewEnv(), func(e *interp.Env) bool {
			sol := map[string]term.Term{}
			for n, v := range vars {
				sol[n] = e.ResolveDeep(v)
			}
			g.sols <- sol
			return <-g.resume
		})
		if errors.Is(err, interp.ErrDepth) {
			err = wam.ResourceBall("depth")
		}
		g.errCh <- err
		close(g.sols)
	}
	return g
}

func (g *interpGen) next() (map[string]term.Term, bool, error) {
	if g.stopped {
		return nil, false, nil
	}
	if g.started {
		g.resume <- true
	} else {
		g.started = true
		go g.solve()
	}
	sol, ok := <-g.sols
	if !ok {
		g.stopped = true
		return nil, false, <-g.errCh
	}
	return sol, true, nil
}

// stop cancels the enumeration and waits for the worker, parked on a
// delivered solution, to unwind: the session's next query runs on the same
// interpreter.
func (g *interpGen) stop() {
	if g.started && !g.stopped {
		g.resume <- false
		for range g.sols {
		}
	}
	g.stopped = true
}
