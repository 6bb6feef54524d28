package core

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/edb"
	"repro/internal/rel"
	"repro/internal/setops"
	"repro/internal/term"
	"repro/internal/wam"
)

// Strategy selects how eligible externally stored rule predicates are
// evaluated — the two faces of the paper's §4 dual evaluation strategy.
type Strategy int

// Evaluation strategies.
const (
	// StrategyAuto (the default) uses set-at-a-time evaluation for
	// eligible predicates in a recursive component — where the WAM
	// re-fetches EDB pages per resolution step and semi-naive deltas pay
	// off — and the tuple-at-a-time WAM everywhere else.
	StrategyAuto Strategy = iota
	// StrategyTuple always runs the tuple-at-a-time WAM (the paper's
	// term-oriented strategy; also the pre-setops engine behaviour).
	StrategyTuple
	// StrategySet uses set-at-a-time evaluation for every eligible rule
	// predicate, recursive or not.
	StrategySet
)

func (st Strategy) String() string {
	switch st {
	case StrategyTuple:
		return "tuple"
	case StrategySet:
		return "set"
	default:
		return "auto"
	}
}

// ParseStrategy parses "auto", "tuple" or "set".
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "auto":
		return StrategyAuto, nil
	case "tuple":
		return StrategyTuple, nil
	case "set":
		return StrategySet, nil
	}
	return StrategyAuto, fmt.Errorf("core: unknown strategy %q (want auto, tuple or set)", s)
}

// Strategy reports the session's evaluation strategy.
func (s *Session) Strategy() Strategy { return s.opts.Strategy }

// SetStrategy switches this session's evaluation strategy (the KB's
// Options.Strategy is only the default). Materialized set-at-a-time
// results are evicted, so the next call of each re-plans under the new
// strategy. educe_strategy/1 calls it mid-query.
func (s *Session) SetStrategy(st Strategy) {
	if s.opts.Strategy == st {
		return
	}
	s.opts.Strategy = st
	for fn, rp := range s.resident {
		if rp.setops != nil {
			s.evict(fn, rp, nil)
		}
	}
}

// setopsInfo is a materialized set-at-a-time result with what it depends
// on: the invalidation version of every stored procedure involved
// (target, recursive companions, EDB fact leaves) and the cardinality of
// every relational-catalog leaf, which reconcile compares. A stale result
// (only leaves changed) waits uninstalled for its next call to maintain it.
type setopsInfo struct {
	proc    *wam.Proc
	prog    *setops.Program                // the rules, and the leaves totals were computed from
	totals  map[term.Indicator]*rel.MemRel // the fixpoint, in derivation order
	builtAt uint64                         // kb invalidation version at build time
	deps    map[term.Indicator]uint64      // procedure -> version
	relDeps map[string]int                 // relation name -> tuple count
	stale   bool
}

// trySetops attempts set-at-a-time evaluation for an external rule
// predicate reached by the interpreter trap: it decompiles the
// predicate's stored clauses (and, transitively, every rule predicate
// they call) into Datalog, materializes the EDB and catalog leaves,
// runs the semi-naive fixpoint, and installs the result as a frozen
// binding-stream procedure; a stale result over the same rules and leaves
// is maintained from the changed leaves instead. A nil, nil return means
// ineligible — the caller falls back to tuple-at-a-time loading.
func (s *Session) trySetops(fn dict.ID, target term.Indicator) (*wam.Proc, error) {
	rp := s.resident[fn]
	if rp != nil && rp.setops != nil && !rp.setops.stale {
		return rp.setops.proc, nil
	}
	if s.kb.knownNotDatalog(target) {
		return nil, nil // known to fall back: no fetch, no decompile, no count
	}
	pages0 := s.q.PagesTouched

	prog, info, leaves, err := s.buildSetopsRules(target)
	if err != nil {
		return nil, err
	}
	// Auto reserves the set-at-a-time pipeline for recursion, where the
	// WAM's per-resolution-step page traffic compounds.
	eligible := prog != nil && (s.opts.Strategy != StrategyAuto || prog.Recursive(target))
	var base *setopsInfo
	if rp != nil && rp.setops != nil {
		if eligible && rp.setops.sameShape(prog, info) {
			base = rp.setops
		} else {
			s.evict(fn, rp, nil)
		}
	}
	if !eligible {
		s.kb.setopsFallbacks.Inc()
		return nil, nil
	}
	drop := func(err error) (*wam.Proc, error) {
		if base != nil {
			s.evict(fn, rp, nil) // a failed pass may leave the totals part-way
		}
		return nil, err
	}
	changed := map[term.Indicator]*rel.MemRel{}
	for _, pi := range leaves {
		if base != nil && base.sameLeaf(pi, info) {
			continue
		}
		if changed[pi], err = s.readLeaf(pi); err == nil && changed[pi] == nil {
			s.kb.setopsFallbacks.Inc()
		}
		if err != nil || changed[pi] == nil {
			return drop(err)
		}
	}

	var st setops.Stats
	if base != nil {
		err = base.prog.Maintain(base.totals, changed, &st, s.check)
	} else {
		for pi, leaf := range changed {
			prog.AddLeaf(pi, leaf)
		}
		info.totals, err = prog.Eval(&st, s.check)
	}
	if err != nil {
		return drop(err)
	}
	s.kb.setopsQueries.Inc()
	s.kb.setopsIterations.Add(uint64(st.Iterations))
	s.kb.setopsDeltaTuples.Add(uint64(st.DeltaTuples))
	s.kb.setopsPages.Add(s.q.PagesTouched - pages0)
	if base != nil {
		base.builtAt, base.deps, base.relDeps, base.stale = info.builtAt, info.deps, info.relDeps, false
		s.m.DefineProc(base.proc)
		return base.proc, nil
	}

	// Feed the result back into the WAM as a tuple stream in derivation
	// order (the mixed-strategy boundary of §4). A call streams the tuples
	// the result held when it started; one binding an atom or integer only
	// those its first such argument keys in the column index, in order.
	info.prog = prog
	info.proc = s.streamProc(fn, "setops", func(m *wam.Machine) (func() (rel.Tuple, error), error) {
		res := info.totals[target]
		if res == nil {
			return nil, nil
		}
		tuples := res.Tuples()
		for i := range target.Arity {
			if v, ok := s.cellValue(m.Deref(m.Reg(i))); ok && v.Type != rel.Float {
				keyed := tuples[:0:0]
				for _, pos := range res.Lookup(i, v) {
					keyed = append(keyed, tuples[pos])
				}
				tuples = keyed
				break
			}
		}
		return func() (rel.Tuple, error) {
			for len(tuples) > 0 {
				t := tuples[0]
				if tuples = tuples[1:]; t != nil {
					return t, nil
				}
			}
			return nil, nil
		}, nil
	})
	s.residentFor(fn, target, info.deps[target]).setops = info
	s.nresident++
	s.nsetops++
	s.m.DefineProc(info.proc) // freeze: later calls skip the trap entirely
	return info.proc, nil
}

// buildSetopsRules walks the dependency closure of the target predicate,
// decompiling every reachable stored rule predicate into Datalog rules.
// Leaf predicates (EDB facts-only procedures and relational-catalog
// relations) are collected for materialization but not yet read. A nil
// program (with nil error) means some reachable predicate is outside the
// safe fragment.
func (s *Session) buildSetopsRules(target term.Indicator) (*setops.Program, *setopsInfo, []term.Indicator, error) {
	prog := setops.NewProgram()
	info := &setopsInfo{
		builtAt: s.kb.version.Load(),
		deps:    map[term.Indicator]uint64{},
		relDeps: map[string]int{},
	}
	var leaves []term.Indicator
	visited := map[term.Indicator]bool{}
	queue := []term.Indicator{target}
	for len(queue) > 0 {
		pi := queue[0]
		queue = queue[1:]
		if visited[pi] {
			continue
		}
		visited[pi] = true

		took := s.rlock()
		p := s.kb.db.Proc(pi.Name, pi.Arity)
		if p == nil {
			r := s.relationFor(pi)
			if r != nil {
				info.relDeps[pi.Name] = r.Count()
			}
			s.runlock(took)
			if r == nil {
				return nil, nil, nil, nil // unresolved: outside the EDB/rel reach
			}
			leaves = append(leaves, pi)
			continue
		}
		if p.Form != edb.FormCode {
			s.runlock(took)
			return nil, nil, nil, nil // source form: baseline territory
		}
		ver := s.kb.storedVersion(pi)
		info.deps[pi] = ver
		if p.FactsOnly {
			s.runlock(took)
			leaves = append(leaves, pi)
			continue
		}
		clauses, err := s.fetchAllClauses(p)
		s.runlock(took)
		if err != nil {
			return nil, nil, nil, err
		}
		rules := make([]setops.Rule, 0, len(clauses))
		for _, cc := range clauses {
			r, ok := setops.DecompileClause(cc)
			if !ok {
				// cut/builtin/structure: not Datalog, until pi is written
				s.kb.markNotDatalog(pi, ver)
				return nil, nil, nil, nil
			}
			rules = append(rules, r)
		}
		prog.AddRules(pi, rules)
		for _, r := range rules {
			for _, lit := range r.Body {
				queue = append(queue, lit.Pred)
			}
		}
	}
	return prog, info, leaves, nil
}

// fetchAllClauses is fetchClauses for the full clause set (the all-wild
// variant). Caller holds the KB read lock.
func (s *Session) fetchAllClauses(p *edb.ProcInfo) ([]compiler.ClauseCode, error) {
	keys := make([]edb.ArgKey, p.K)
	for i := range keys {
		keys[i] = edb.WildKey()
	}
	return s.fetchClauses(p, keys)
}

// readLeaf reads one leaf relation into memory: an EDB facts-only
// procedure is fetched whole (one all-wild retrieval — the set-at-a-time
// page-traffic win) and decompiled to ground tuples; a relational-catalog
// relation is scanned sequentially. A nil relation (with nil error) means
// the leaf holds non-atomic facts or is gone, and the build falls back.
func (s *Session) readLeaf(pi term.Indicator) (*rel.MemRel, error) {
	defer s.runlock(s.rlock())
	leaf := rel.NewMemRel(pi.Arity)
	if p := s.kb.db.Proc(pi.Name, pi.Arity); p != nil {
		clauses, err := s.fetchAllClauses(p)
		if err != nil {
			return nil, err
		}
		t := make(rel.Tuple, pi.Arity)
		for _, cc := range clauses {
			r, ok := setops.DecompileClause(cc)
			if !ok || len(r.Body) != 0 || r.NVars != 0 {
				return nil, nil // compound-valued or non-ground fact
			}
			for i, a := range r.Head.Args {
				t[i] = a.Val
			}
			leaf.Insert(t)
		}
		return leaf, nil
	}
	r := s.relationFor(pi)
	if r == nil {
		return nil, nil
	}
	defer s.chargePages(s.kb.st.Pool().Accesses())
	ts, err := rel.Collect(rel.SeqScan(r))
	for _, t := range ts {
		leaf.Insert(t)
	}
	return leaf, err
}

// sameLeaf reports whether leaf pi, as info found it, is as it was when so
// was computed: the same stored version, or the same catalog cardinality.
func (so *setopsInfo) sameLeaf(pi term.Indicator, info *setopsInfo) bool {
	if v, stored := info.deps[pi]; stored {
		return v == so.deps[pi]
	}
	return info.relDeps[pi.Name] == so.relDeps[pi.Name]
}

// sameShape reports whether the stale result so can be maintained into
// the one prog and info describe: the same stored procedures, the rule
// procedures among them at the versions so was computed from, and the
// same catalog relations.
func (so *setopsInfo) sameShape(prog *setops.Program, info *setopsInfo) bool {
	if len(info.deps) != len(so.deps) || len(info.relDeps) != len(so.relDeps) {
		return false
	}
	for pi, v := range info.deps {
		w, ok := so.deps[pi]
		_, rule := prog.Rules[pi]
		if _, was := so.prog.Rules[pi]; !ok || rule != was || rule && v != w {
			return false
		}
	}
	for name := range info.relDeps {
		if _, ok := so.relDeps[name]; !ok {
			return false
		}
	}
	return true
}

// strategyBuiltin is educe_strategy/1: with an atom argument (auto,
// tuple, set) it switches the session's evaluation strategy, from the
// next call on; with any other it answers the current one.
func (s *Session) strategyBuiltin(a []term.Term) ([][]term.Term, error) {
	name, ok := a[0].(term.Atom)
	if !ok {
		return [][]term.Term{{term.Atom(s.opts.Strategy.String())}}, nil
	}
	st, err := ParseStrategy(string(name))
	if err != nil {
		return nil, &wam.ErrBall{Term: term.Comp("error",
			term.Comp("domain_error", term.Atom("strategy"), name), term.Atom("educe_strategy/1"))}
	}
	s.SetStrategy(st)
	return yes, nil
}
