package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/term"
	"repro/internal/wam"
)

// registerEngineBuiltins adds the session builtins and the builtins that
// need the compiler: the dynamic database (assert/retract — §2 item 3 of the
// paper stresses how expensive these are, and here assert really does run
// the incremental compiler) and clause inspection.
func (s *Session) registerEngineBuiltins() {
	m := s.m

	m.RegisterBuiltin(wam.Builtin{Name: "assert", Arity: 1, Fn: s.biAssert(false)})
	m.RegisterBuiltin(wam.Builtin{Name: "assertz", Arity: 1, Fn: s.biAssert(false)})
	m.RegisterBuiltin(wam.Builtin{Name: "asserta", Arity: 1, Fn: s.biAssert(true)})
	m.RegisterBuiltin(wam.Builtin{Name: "retract", Arity: 1, Fn: s.biRetract})
	m.RegisterBuiltin(wam.Builtin{Name: "abolish", Arity: 1, Fn: s.biAbolish})
	m.RegisterBuiltin(wam.Builtin{Name: "clause", Arity: 2, Fn: s.biClause})
	for pi, f := range sessionBuiltins {
		m.RegisterBuiltin(wam.Builtin{Name: pi.Name, Arity: pi.Arity, Fn: s.wamBuiltin(f)})
	}
}

// A sessionBuiltin is a builtin over the session or its knowledge base,
// which both evaluators answer from (the WAM through wamBuiltin, the
// interpreter through interpTrap): over the call's resolved arguments it
// returns the call's answers, each the ground values of the arguments in
// order or empty (binding nothing), or an error ball.
type sessionBuiltin func(s *Session, args []term.Term) ([][]term.Term, error)

// sessionBuiltins is every session builtin: the steps of transaction/1, the
// EDB write path (a transaction groups stored-clause writes without leaving
// the language), the statistics and profile views and the strategy.
var sessionBuiltins = map[term.Indicator]sessionBuiltin{
	{Name: "begin"}:                      func(s *Session, _ []term.Term) ([][]term.Term, error) { return once(true, txnBall(s.Begin())) },
	{Name: "commit"}:                     func(s *Session, _ []term.Term) ([][]term.Term, error) { return once(true, txnBall(s.Commit())) },
	{Name: "rollback"}:                   func(s *Session, _ []term.Term) ([][]term.Term, error) { return once(true, txnBall(s.Rollback())) },
	{Name: "assert_external", Arity: 1}:  func(s *Session, a []term.Term) ([][]term.Term, error) { return once(true, s.AssertExternalTerm(a[0])) },
	{Name: "retract_external", Arity: 1}: func(s *Session, a []term.Term) ([][]term.Term, error) { return once(s.RetractExternal(a[0])) },
	{Name: "educe_statistics", Arity: 2}: func(s *Session, a []term.Term) ([][]term.Term, error) { return pairs(a[0], s.statistics()), nil },
	{Name: "educe_profile", Arity: 2}:    func(s *Session, a []term.Term) ([][]term.Term, error) { return pairs(a[0], s.profileStats()), nil },
	{Name: "educe_strategy", Arity: 1}:   (*Session).strategyBuiltin,
}

// yes answers a call that succeeds once, binding nothing.
var yes = [][]term.Term{{}}

// once answers a call that succeeds once if ok and err is nil; a read-only
// store's refusal of a write is its catchable ball.
func once(ok bool, err error) ([][]term.Term, error) {
	if errors.Is(err, store.ErrReadOnly) {
		err = wam.TransactionBall("read_only")
	}
	if !ok || err != nil {
		return nil, err
	}
	return yes, nil
}

// wamBuiltin is session builtin f as a WAM builtin: it decodes the argument
// registers and unifies them with f's first answer, and with each later one
// on redo.
func (s *Session) wamBuiltin(f sessionBuiltin) wam.BuiltinFn {
	return func(m *wam.Machine, args []wam.Cell) (bool, error) {
		as, err := f(s, m.DecodeTerms(args))
		if len(as) > 1 {
			rest := as[1:]
			m.PushRedo(func(m *wam.Machine) (bool, error) {
				for len(rest) > 0 {
					a := rest[0]
					if rest = rest[1:]; m.TryUnify(func() bool { return unifyRegs(m, a) }) {
						return true, nil
					}
				}
				return false, nil
			})
		}
		return len(as) > 0 && unifyRegs(m, as[0]), err
	}
}

// unifyRegs unifies the argument registers with answer a's values.
func unifyRegs(m *wam.Machine, a []term.Term) bool {
	i := 0
	for i < len(a) && m.Unify(m.Reg(i), m.EncodeTerm(a[i], nil)) {
		i++
	}
	return i == len(a)
}

// pairs answers a Key-Value call over stats in key order: the pair of a
// bound key, or every pair.
func pairs(key term.Term, stats map[string]int64) (as [][]term.Term) {
	for k, v := range stats {
		if a, ok := key.(term.Atom); !ok || string(a) == k {
			as = append(as, []term.Term{term.Atom(k), term.Int(v)})
		}
	}
	sort.Slice(as, func(i, j int) bool { return as[i][0].(term.Atom) < as[j][0].(term.Atom) })
	return as
}

// statistics is the view educe_statistics/2 reads, the statistics/1-style
// view of the paper's §3.1/§5 cost breakdowns: the counters below and the
// per-phase nanosecond totals parse_ns, compile_ns, edb_fetch_ns,
// preunify_ns, link_ns, exec_ns, gc_ns and store_ns.
func (s *Session) statistics() map[string]int64 {
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
	return stats
}

// profileStats is the view educe_profile/2 reads, the knowledge base's
// per-predicate profile: a key per counter of each profiled predicate —
// '<name>/<arity>.calls', '.exits', '.redos', '.fails', '.self_ns',
// '.edb_fetches', '.pages' — and the aggregate 'total.*' keys. It reads
// the same KB-wide table as /debug/profile (queries completed by any
// profiled session; the in-flight query's counters are merged at its
// end), so the two views always agree.
func (s *Session) profileStats() map[string]int64 {
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
	return stats
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

// newClause reads clause t, compiling it when compile is set: the one place
// a session compiles a clause (the incremental compiler at work), and the
// one that charges the compile phase.
func (s *Session) newClause(t term.Term, compile bool) (term.Indicator, interp.Clause, error) {
	pi, c, err := interp.NewClause(t)
	if err == nil && compile {
		t0 := time.Now()
		var ccs []compiler.ClauseCode
		if ccs, err = s.comp.CompileClause(t); err == nil {
			c.Code = &ccs[0]
		}
		s.q.Phases.Add(obs.PhaseCompile, time.Since(t0))
	}
	return pi, c, err
}

// setOwn makes cs fn's clauses in the session's own code and uninstalls
// fn's code, so the next call traps and links them. A running call
// finishes on the old code (the logical update view): it is retired, or,
// if it is a stored procedure's resident code, left to the resident table.
func (s *Session) setOwn(fn dict.ID, cs []interp.Clause) {
	s.own[fn] = cs
	if p := s.m.Proc(fn); p != nil {
		s.m.UndefineProc(p)
		if !p.Transient {
			s.m.RemoveBlock(p.Block)
		}
	}
}

// ownStore is the session's own code as the source interpreter's clause
// store, so the two modes read and edit one list.
type ownStore struct{ s *Session }

func (o ownStore) Clauses(pi term.Indicator) ([]interp.Clause, bool) {
	fn, _ := o.s.m.Dict.Lookup(pi.Name, pi.Arity)
	cs, ok := o.s.own[fn]
	return cs, ok
}

func (o ownStore) Set(pi term.Indicator, cs []interp.Clause) {
	o.s.setOwn(o.s.m.Dict.Intern(pi.Name, pi.Arity), cs)
}

func (o ownStore) Abolish(pi term.Indicator) {
	fn := o.s.m.Dict.Intern(pi.Name, pi.Arity)
	o.s.setOwn(fn, nil)
	delete(o.s.own, fn)
}

// link links clauses cs as fn's code and installs it, at fn's first call:
// the session's own code or the library's. A clause added in source mode
// has no code until then; a library clause always has its code, so the
// shared table is only read.
func (s *Session) link(fn dict.ID, cs []interp.Clause) (*wam.Proc, error) {
	code, err := s.codes(cs)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { s.q.Phases.Add(obs.PhaseLink, time.Since(t0)) }()
	return loader.LinkPredicate(s.m, s.m.Dict.Name(fn), s.m.Dict.Arity(fn), code, loader.Options{Index: !s.opts.DisableIndexing})
}

// codes returns the code units of clauses cs, compiling, once, each that
// was added with none.
func (s *Session) codes(cs []interp.Clause) ([]compiler.ClauseCode, error) {
	out := make([]compiler.ClauseCode, len(cs))
	for i := range cs {
		if cs[i].Code == nil {
			_, c, err := s.newClause(cs[i].Term, true)
			if err != nil {
				return nil, err
			}
			cs[i].Code = c.Code
		}
		out[i] = *cs[i].Code
	}
	return out, nil
}

// AssertTerm adds a clause to the session's own code, compiled now in
// compiled mode; its predicate is linked at its next call.
func (s *Session) AssertTerm(t term.Term, front bool) error {
	pi, c, err := s.newClause(t, s.opts.RuleStorage != RuleStorageSource)
	if err == nil {
		interp.AddClause(ownStore{s}, pi, c, front)
	}
	return err
}

// ownCells reads clause term c on the heap, Head :- Body or a fact Head,
// as its head's functor and its head and body cells; ok is false when the
// head is not callable.
func ownCells(m *wam.Machine, c wam.Cell) (fn dict.ID, head, body wam.Cell, ok bool) {
	head, body = m.Deref(c), wam.MakeCon(m.Dict.Intern("true", 0))
	if head.Tag() == wam.TagStr && m.Heap(head.Val()) == wam.MakeFun(m.Dict.Intern(":-", 2), 2) {
		head, body = m.Deref(m.Heap(head.Val()+1)), m.Heap(head.Val()+2)
	}
	switch head.Tag() {
	case wam.TagCon:
		return head.AtomID(), head, body, true
	case wam.TagStr:
		return m.Heap(head.Val()).FunID(), head, body, true
	case wam.TagLis:
		return m.Dict.Intern(term.ConsName, 2), head, body, true
	}
	return 0, head, body, false
}

// matchClause unifies head and body with clause c renamed, keeping the
// bindings only if both unify.
func matchClause(m *wam.Machine, c interp.Clause, head, body wam.Cell) bool {
	vars := map[*term.Var]wam.Cell{}
	ch, cb := interp.SplitClause(c.Term)
	hc, bc := m.EncodeTerm(ch, vars), m.EncodeTerm(cb, vars)
	return m.TryUnify(func() bool { return m.Unify(head, hc) && m.Unify(body, bc) })
}

// biRetract removes the first clause of the session's own code that
// unifies with its argument, keeping the bindings, and leaves no choice
// point.
func (s *Session) biRetract(m *wam.Machine, args []wam.Cell) (bool, error) {
	fn, head, body, ok := ownCells(m, args[0])
	if !ok {
		return false, nil
	}
	cs := s.own[fn]
	for i, c := range cs {
		if matchClause(m, c, head, body) {
			s.setOwn(fn, append(cs[:i:i], cs[i+1:]...))
			return true, nil
		}
	}
	return false, nil
}

func (s *Session) biAbolish(m *wam.Machine, args []wam.Cell) (bool, error) {
	pi, err := interp.ParseIndicator(m.DecodeTerm(args[0]))
	if err != nil {
		return false, err
	}
	ownStore{s}.Abolish(pi)
	return true, nil
}

// biClause enumerates the clauses of a predicate of the session's own
// code as they were at the call: clause(Head, Body).
func (s *Session) biClause(m *wam.Machine, args []wam.Cell) (bool, error) {
	fn, _, _, ok := ownCells(m, args[0])
	if !ok {
		return false, fmt.Errorf("core: clause/2: head must be callable")
	}
	cs := s.own[fn]
	redo := func(m *wam.Machine) (bool, error) {
		for len(cs) > 0 {
			c := cs[0]
			if cs = cs[1:]; matchClause(m, c, m.Reg(0), m.Reg(1)) {
				return true, nil
			}
		}
		return false, nil
	}
	m.PushRedo(redo)
	return redo(m)
}
