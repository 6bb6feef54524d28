package core

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/wam"
)

// registerEngineBuiltins adds builtins that need the compiler: the dynamic
// database (assert/retract — §2 item 3 of the paper stresses how expensive
// these are, and here assert really does run the incremental compiler) and
// clause inspection.
func (s *Session) registerEngineBuiltins() {
	m := s.m

	m.RegisterBuiltin(wam.Builtin{Name: "assert", Arity: 1, Fn: s.biAssert(false)})
	m.RegisterBuiltin(wam.Builtin{Name: "assertz", Arity: 1, Fn: s.biAssert(false)})
	m.RegisterBuiltin(wam.Builtin{Name: "asserta", Arity: 1, Fn: s.biAssert(true)})
	m.RegisterBuiltin(wam.Builtin{Name: "retract", Arity: 1, Fn: s.biRetract})
	m.RegisterBuiltin(wam.Builtin{Name: "abolish", Arity: 1, Fn: s.biAbolish})
	m.RegisterBuiltin(wam.Builtin{Name: "clause", Arity: 2, Fn: s.biClause})
	m.RegisterBuiltin(wam.Builtin{Name: "educe_statistics", Arity: 2, Fn: s.biStatistics})
	m.RegisterBuiltin(wam.Builtin{Name: "educe_profile", Arity: 2, Fn: s.biProfile})
	m.RegisterBuiltin(wam.Builtin{Name: "begin", Arity: 0, Fn: s.biBegin})
	m.RegisterBuiltin(wam.Builtin{Name: "commit", Arity: 0, Fn: s.biCommit})
	m.RegisterBuiltin(wam.Builtin{Name: "rollback", Arity: 0, Fn: s.biRollback})
	m.RegisterBuiltin(wam.Builtin{Name: "assert_external", Arity: 1, Fn: s.biAssertExternal})
	m.RegisterBuiltin(wam.Builtin{Name: "retract_external", Arity: 1, Fn: s.biRetractExternal})
	m.RegisterBuiltin(wam.Builtin{Name: "educe_strategy", Arity: 1, Fn: s.biStrategy})
}

// biStatistics exposes engine counters to Prolog:
// educe_statistics(Key, Value) with keys instructions, calls,
// choice_points, choice_points_elided, gc_runs, gc_pause_ns, heap_peak,
// edb_retrievals, edb_candidates, io_accesses, io_hits, io_reads,
// io_writes, io_evictions, io_latch_waits, io_latch_wait_ns,
// pool_shards, session_io_accesses, session_io_reads, session_io_writes,
// dict_entries, dict_hits, dict_misses, code_cache_hits,
// code_cache_misses, preunify_scanned, preunify_passed, pages_touched,
// asserts, txn_commits, txn_rollbacks, txn_auto_rollbacks,
// store_read_only, and the per-phase nanosecond totals parse_ns, compile_ns,
// edb_fetch_ns, preunify_ns, link_ns, exec_ns, gc_ns, store_ns — the
// statistics/1-style view of the paper's §3.1/§5 cost breakdowns.
func (s *Session) biStatistics(m *wam.Machine, args []wam.Cell) (bool, error) {
	st := s.Stats()
	stats := map[string]int64{
		"instructions":         int64(st.Machine.Instructions),
		"calls":                int64(st.Machine.Calls),
		"choice_points":        int64(st.Machine.ChoicePoints),
		"choice_points_elided": int64(st.Machine.ChoicePointsElided),
		"gc_runs":              int64(st.Machine.GCRuns),
		"gc_pause_ns":          int64(st.Machine.GCPauseNS),
		"heap_peak":            int64(st.Machine.HeapPeak),
		"edb_retrievals":       int64(st.EDB.Retrievals),
		"edb_candidates":       int64(st.EDB.CandidatesReturned),
		"io_accesses":          int64(st.IO.Accesses),
		"io_hits":              int64(st.IO.Hits),
		"io_reads":             int64(st.IO.Reads),
		"io_writes":            int64(st.IO.Writes),
		"io_evictions":         int64(st.IO.Evictions),
		"io_latch_waits":       int64(st.IO.LatchWaits),
		"io_latch_wait_ns":     int64(st.IO.LatchWaitNS),
		"pool_shards":          int64(s.kb.st.Pool().Shards()),
		"session_io_accesses":  int64(st.SessionIO.Accesses),
		"session_io_reads":     int64(st.SessionIO.Reads),
		"session_io_writes":    int64(st.SessionIO.Writes),
		"dict_entries":         int64(st.Dict.Live),
		"dict_hits":            int64(st.Dict.Hits),
		"dict_misses":          int64(st.Dict.Misses),
		"code_cache_hits":      int64(st.Cost.CacheHits),
		"code_cache_misses":    int64(st.Cost.CacheMisses),
		"preunify_scanned":     int64(st.Cost.ClausesScanned),
		"preunify_passed":      int64(st.Cost.ClausesPassed),
		"pages_touched":        int64(st.Cost.PagesTouched),
		"asserts":              int64(st.Cost.Asserts),
		"txn_commits":          int64(s.kb.txnCommits.Value()),
		"txn_rollbacks":        int64(s.kb.txnRollbacks.Value()),
		"txn_auto_rollbacks":   int64(s.kb.txnAutoRollbacks.Value()),
		"store_read_only":      0,
	}
	if s.kb.st.ReadOnly() {
		stats["store_read_only"] = 1
	}
	for _, p := range obs.QueryPhases() {
		stats[p.String()+"_ns"] = st.Cost.Phases[p]
	}
	stats["store_ns"] = st.Cost.Phases[obs.PhaseStore]
	return keyValue(m, args, stats)
}

// keyValue is the body of a Key-Value statistics builtin over stats: a
// bound key looks its value up, an unbound one enumerates the pairs in key
// order on backtracking.
func keyValue(m *wam.Machine, args []wam.Cell, stats map[string]int64) (bool, error) {
	key := m.Deref(args[0])
	if key.Tag() == wam.TagCon {
		v, ok := stats[m.Dict.Name(key.AtomID())]
		if !ok {
			return false, nil
		}
		return m.Unify(args[1], wam.MakeInt(v)), nil
	}
	// Unbound key: enumerate.
	names := make([]string, 0, len(stats))
	for k := range stats {
		names = append(names, k)
	}
	sort.Strings(names)
	i := 0
	redo := func(m *wam.Machine) (bool, error) {
		for i < len(names) {
			k := names[i]
			i++
			ok := m.TryUnify(func() bool {
				return m.Unify(m.Reg(0), wam.MakeCon(m.Dict.Intern(k, 0))) &&
					m.Unify(m.Reg(1), wam.MakeInt(stats[k]))
			})
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	m.PushRedo(redo)
	return redo(m)
}

// biProfile exposes the knowledge base's per-predicate profile to
// Prolog: educe_profile(Key, Value) with one key per counter of each
// profiled predicate — '<name>/<arity>.calls', '.exits', '.redos',
// '.fails', '.self_ns', '.edb_fetches', '.pages' — plus the aggregate
// 'total.*' keys. It reads the same KB-wide table as /debug/profile
// (queries completed by any profiled session; the in-flight query's
// counters are merged at its end), so the two views always agree.
func (s *Session) biProfile(m *wam.Machine, args []wam.Cell) (bool, error) {
	rows := s.kb.profile.Snapshot()
	stats := make(map[string]int64, len(rows)*7+7)
	add := func(prefix string, c *obs.PredCounters) {
		stats[prefix+".calls"] = int64(c.Calls)
		stats[prefix+".exits"] = int64(c.Exits)
		stats[prefix+".redos"] = int64(c.Redos)
		stats[prefix+".fails"] = int64(c.Fails)
		stats[prefix+".self_ns"] = c.SelfNS
		stats[prefix+".edb_fetches"] = int64(c.EDBFetches)
		stats[prefix+".pages"] = int64(c.Pages)
	}
	for i := range rows {
		add(rows[i].Pred, &rows[i].PredCounters)
	}
	totals := s.kb.profile.Totals()
	add("total", &totals)
	return keyValue(m, args, stats)
}

func (s *Session) biAssert(front bool) wam.BuiltinFn {
	return func(m *wam.Machine, args []wam.Cell) (bool, error) {
		t := m.DecodeTerm(args[0])
		if err := s.AssertTerm(t, front); err != nil {
			return false, err
		}
		return true, nil
	}
}

// ensureDyn registers pi as a dynamic predicate (initially empty); in
// source mode the interpreter gets it too.
func (s *Session) ensureDyn(pi term.Indicator) *dynPred {
	if dp, ok := s.dyn[pi]; ok {
		return dp
	}
	dp := &dynPred{}
	s.dyn[pi] = dp
	s.relinkDyn(pi, dp)
	if s.opts.RuleStorage == RuleStorageSource {
		s.in.Dynamic(pi)
	}
	return dp
}

// AssertTerm adds a clause to a dynamic in-memory predicate, compiling it
// immediately (the incremental compiler at work); in source mode the
// interpreter gets it too.
func (s *Session) AssertTerm(t term.Term, front bool) error {
	head, _ := splitClauseTerm(t)
	pi := head.Indicator()
	if pi.Name == "" {
		return fmt.Errorf("core: cannot assert %s", t)
	}
	ccs, err := s.comp.CompileClause(t)
	if err != nil {
		return err
	}
	dp := s.ensureDyn(pi)
	if front {
		dp.terms = append([]term.Term{t}, dp.terms...)
		dp.clauses = append([]compiler.ClauseCode{ccs[0]}, dp.clauses...)
	} else {
		dp.terms = append(dp.terms, t)
		dp.clauses = append(dp.clauses, ccs[0])
	}
	if err := s.relinkDyn(pi, dp); err != nil || s.opts.RuleStorage != RuleStorageSource {
		return err
	}
	if front {
		return s.in.AssertA(t)
	}
	return s.in.Assert(t)
}

// relinkDyn rebuilds a dynamic predicate's code from its clause list.
func (s *Session) relinkDyn(pi term.Indicator, dp *dynPred) error {
	return s.link(pi, dp.clauses)
}

func (s *Session) biRetract(m *wam.Machine, args []wam.Cell) (bool, error) {
	t := m.DecodeTerm(args[0])
	head, body := splitClauseTerm(t)
	pi := head.Indicator()
	dp, ok := s.dyn[pi]
	if !ok {
		return false, nil
	}
	env := interp.NewEnv()
	for i, ct := range dp.terms {
		mark := env.Mark()
		r := term.Rename(ct)
		rh, rb := splitClauseTerm(r)
		if env.Unify(head, rh) && env.Unify(body, rb) {
			dp.terms = append(append([]term.Term{}, dp.terms[:i]...), dp.terms[i+1:]...)
			dp.clauses = append(append([]compiler.ClauseCode{}, dp.clauses[:i]...), dp.clauses[i+1:]...)
			if err := s.relinkDyn(pi, dp); err != nil {
				return false, err
			}
			// Transfer bindings to the WAM by unifying the caller's
			// term with the matched (renamed) clause.
			matched := term.Comp(":-", rh, rb)
			var matchCell wam.Cell
			if _, isRule := t.(*term.Compound); isRule && t.Indicator() == (term.Indicator{Name: ":-", Arity: 2}) {
				matchCell = m.EncodeTerm(matched, map[*term.Var]wam.Cell{})
			} else {
				matchCell = m.EncodeTerm(rh, map[*term.Var]wam.Cell{})
			}
			return m.Unify(args[0], matchCell), nil
		}
		env.Undo(mark)
	}
	return false, nil
}

func (s *Session) biAbolish(m *wam.Machine, args []wam.Cell) (bool, error) {
	t := m.DecodeTerm(args[0])
	pi, err := parseIndicator(t)
	if err != nil {
		return false, err
	}
	delete(s.dyn, pi)
	s.m.RemoveProc(s.m.Dict.Intern(pi.Name, pi.Arity))
	return true, nil
}

// biClause enumerates clauses of a dynamic predicate: clause(Head, Body).
func (s *Session) biClause(m *wam.Machine, args []wam.Cell) (bool, error) {
	headT := m.DecodeTerm(args[0])
	pi := headT.Indicator()
	if pi.Name == "" {
		return false, fmt.Errorf("core: clause/2: head must be callable")
	}
	dp, ok := s.dyn[pi]
	if !ok {
		return false, nil
	}
	// Snapshot the clause list; enumeration is over this snapshot.
	terms := append([]term.Term{}, dp.terms...)
	i := 0
	redo := func(m *wam.Machine) (bool, error) {
		for i < len(terms) {
			ct := terms[i]
			i++
			r := term.Rename(ct)
			rh, rb := splitClauseTerm(r)
			env := map[*term.Var]wam.Cell{}
			hc := m.EncodeTerm(rh, env)
			bc := m.EncodeTerm(rb, env)
			ok := m.TryUnify(func() bool {
				return m.Unify(m.Reg(0), hc) && m.Unify(m.Reg(1), bc)
			})
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	m.PushRedo(redo)
	return redo(m)
}
