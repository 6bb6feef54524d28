package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/edb"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/term"
	"repro/internal/wam"
)

// onUndefined is the interpreter trap of §3.2.1, the one way a session
// installs a procedure: a call to a procedure with no installed code finds
// it at call time, in the session's own code, then as a resident variant,
// a builtin, a library predicate, in the knowledge base's procedures
// table, where a stored procedure invokes the dynamic loader, and last in
// the relational catalog. Nothing is registered ahead of the call. The loader
// pre-unifies in the EDB using the call's bound arguments, decodes the
// candidate relocatable clauses, resolves their associative addresses and
// splices control code.
//
// A call whose keyed variant is already resident does not come here: the
// machine's procedure table holds the record's hit entry (see install),
// and only a call the entry cannot serve traps.
//
// The decoded (still relocatable) candidate sets are shared across
// sessions through the knowledge base's code cache; only the final link
// against this session's machine is per-session. The KB read lock is held
// across the storage access, never across linking or execution.
func (s *Session) onUndefined(m *wam.Machine, fn dict.ID) (*wam.Proc, error) {
	if cs, ok := s.own[fn]; ok {
		return s.link(fn, cs)
	}
	// A builtin is left to the machine, which installs its wrapper; a
	// library predicate is linked from the process-wide table. Both come
	// before the knowledge base, so a stored procedure cannot shadow them.
	name := m.Dict.Name(fn)
	arity := m.Dict.Arity(fn)
	if m.BuiltinIndex(name, arity) >= 0 {
		return nil, nil
	}
	pi := term.Indicator{Name: name, Arity: arity}
	if cs, ok := library()[pi]; ok {
		return s.link(fn, cs)
	}

	took := s.rlock()
	p := s.kb.db.Proc(name, arity)
	if p == nil {
		defer s.runlock(took)
		if s.relationFor(pi) == nil {
			return nil, nil // genuinely unknown
		}
		return s.relationProc(fn, pi, s.kb.storedVersion(pi)), nil
	}

	// Set-at-a-time attempt (§4's second evaluation strategy): an
	// external rule predicate whose dependency closure is safe Datalog
	// over EDB/catalog leaves is evaluated bottom-up with semi-naive
	// deltas and frozen as a materialized binding stream. Ineligible
	// predicates (and StrategyTuple sessions) continue below on the
	// tuple-at-a-time loader path.
	if s.opts.Strategy != StrategyTuple && p.Form == edb.FormCode && !p.FactsOnly {
		s.runlock(took)
		proc, err := s.trySetops(fn, pi)
		if err != nil || proc != nil {
			return proc, err
		}
		took = s.rlock()
		if p = s.kb.db.Proc(name, arity); p == nil {
			s.runlock(took)
			return nil, nil
		}
	}

	// Key the call by its argument registers. Rule procedures are always
	// loaded whole and frozen for the query (the paper's §3.2.1 "freeze the
	// definition": in-memory switch instructions then dispatch between
	// their clauses); facts relations are filtered per goal, where EDB
	// selectivity pays.
	keyed := 0
	if p.FactsOnly && !s.opts.DisablePreUnification {
		keyed = p.K
	}
	// A resident variant is served caught up, as a load would answer; ver
	// is stable under the read lock (writers lock across store + invalidate).
	ck := callKeyOf(m, keyed)
	ver := s.kb.storedVersion(pi)
	if rp := s.catchUp(fn, s.resident[fn], ver); rp.lookup(ck) != nil {
		s.runlock(took)
		return s.install(fn, rp, ck), nil
	}
	keys := make([]edb.ArgKey, p.K)
	for i := range keys {
		keys[i] = s.cellArgKey(&ck, i)
	}
	form := p.Form

	var clauses []compiler.ClauseCode // FormCode path
	var scs []edb.StoredClause        // FormSource path
	var err error
	retr0, pages0 := s.q.Retrievals, s.q.PagesTouched
	if form == edb.FormCode {
		clauses, err = s.fetchClauses(p, keys)
	} else {
		scs, err = s.kb.db.RetrieveObs(p, keys, &s.q)
	}
	s.runlock(took)
	if err != nil {
		return nil, err
	}
	s.m.Profiler().AttributeIO(fn, s.q.Retrievals-retr0, s.q.PagesTouched-pages0)

	if form == edb.FormSource {
		// A source-form procedure reached from compiled execution:
		// parse and compile on the fly (the hybrid path).
		cs := make([]interp.Clause, len(scs))
		for i, sc := range scs {
			if cs[i].Term, err = s.parseStored(p, sc); err != nil {
				return nil, err
			}
		}
		if clauses, err = s.codes(cs); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	blk, err := loader.BuildBlock(m, name, arity, clauses, loader.Options{
		Index:     !s.opts.DisableIndexing,
		Transient: true,
	})
	s.q.Phases.Add(obs.PhaseLink, time.Since(t1))
	if err != nil {
		return nil, err
	}
	blk.Owner, blk.HasOwner = fn, true // for the profiler; a keyed variant is not installed
	m.AddBlock(blk)
	v := &variant{Proc: wam.Proc{Fn: fn, Arity: arity, Block: blk, Transient: true}, fk: filterKeyOf(keys)}
	return s.file(fn, pi, ver, keyed, ck, v), nil
}

// file files variant v of pi (functor fn), read at stored version ver,
// under call key ck (keyed: the registers a key reads), and installs it.
func (s *Session) file(fn dict.ID, pi term.Indicator, ver uint64, keyed int, ck callKey, v *variant) *wam.Proc {
	rp := s.residentFor(fn, pi, ver)
	rp.keyed = keyed
	rp.variants[ck] = v
	rp.counts.add(&v.fk, 1)
	s.nresident++
	return s.install(fn, rp, ck)
}

// install installs fn's resident code so that later calls skip the trap,
// until evict uninstalls it, and returns variant ck. The whole definition
// (the all-wild variant) is installed itself, frozen (§3.2.1); otherwise
// the record's hit entry is, which serves each call the variant of its
// key, under the KB read lock (as rlock takes it) and only while nothing
// was written since the session last reconciled, touching no page.
func (s *Session) install(fn dict.ID, rp *residentProc, ck callKey) *wam.Proc {
	p := rp.lookup(ck)
	if ck == (callKey{}) {
		s.m.DefineProc(p)
		return p
	}
	if rp.entry.Hit == nil {
		rp.entry = wam.Proc{Fn: fn, Arity: rp.pi.Arity, Transient: true, Hit: func(m *wam.Machine) *wam.Proc {
			if s.txn == nil {
				s.kb.mu.RLock()
				defer s.kb.mu.RUnlock()
			}
			if s.kb.version.Load() != s.synced {
				return nil // a write may have changed it: the trap decides
			}
			return rp.lookup(callKeyOf(m, rp.keyed))
		}}
	}
	s.m.DefineProc(&rp.entry)
	return p
}

// fetchClauses returns the decoded clauses of one variant of a
// compiled-form stored procedure, through the shared table. Caller holds
// the KB read lock.
func (s *Session) fetchClauses(p *edb.ProcInfo, keys []edb.ArgKey) ([]compiler.ClauseCode, error) {
	pi, fk := term.Indicator{Name: p.Name, Arity: p.Arity}, filterKeyOf(keys)
	if clauses, ok := s.kb.lookupShared(pi, fk); ok {
		s.q.CacheHits++
		return clauses, nil
	}
	s.q.CacheMisses++
	scs, err := s.kb.db.RetrieveObs(p, keys, &s.q)
	if err != nil {
		return nil, err
	}
	clauses := make([]compiler.ClauseCode, 0, len(scs))
	for _, sc := range scs {
		cc, err := loader.DecodeClause(sc.Blob)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", pi, err)
		}
		clauses = append(clauses, cc)
	}
	s.kb.storeShared(pi, fk, clauses)
	return clauses, nil
}

// lookup returns the resident variant for call key ck, or nil.
func (rp *residentProc) lookup(ck callKey) *wam.Proc {
	if rp == nil {
		return nil
	}
	if v := rp.variants[ck]; v != nil {
		return &v.Proc
	}
	return nil
}

// callKeyOf reads the call key of the current call from its first keyed
// argument registers.
func callKeyOf(m *wam.Machine, keyed int) (ck callKey) {
	for i := 0; i < keyed; i++ {
		switch c := m.Deref(m.Reg(i)); c.Tag() {
		case wam.TagCon, wam.TagInt:
			ck.args[i] = c
		case wam.TagStr:
			ck.args[i] = m.Heap(c.Val())
		case wam.TagLis:
			ck.args[i] = wam.MakeLis(0)
		case wam.TagFlt:
			ck.args[i] = wam.Cell(math.Float64bits(m.Float(c)))
			ck.floats |= 1 << i
		}
	}
	return ck
}

// cellArgKey derives the pre-unification key of argument i of a call key.
func (s *Session) cellArgKey(ck *callKey, i int) edb.ArgKey {
	c := ck.args[i]
	if ck.floats&(1<<i) != 0 {
		return edb.FloatKey(uint64(c))
	}
	switch c.Tag() {
	case wam.TagCon:
		return edb.AtomKey(s.m.Dict.Name(c.AtomID()))
	case wam.TagInt:
		return edb.IntKey(c.IntVal())
	case wam.TagLis:
		return edb.ListKey()
	case wam.TagFun:
		return edb.StructKey(s.m.Dict.Name(c.FunID()), c.FunArity())
	}
	return edb.WildKey()
}

// storedClause names a clause stored as text: its procedure and clause ID.
type storedClause struct {
	p  *edb.ProcInfo
	id uint32
}

// parseStored returns the term of clause sc of p, stored as text. It is
// parsed once per query: Educe pays for parsing the terms it retrieves on
// each use (§2.3), and the cache goes with the rest of the query's state.
func (s *Session) parseStored(p *edb.ProcInfo, sc edb.StoredClause) (term.Term, error) {
	key := storedClause{p, sc.ClauseID}
	if tm, ok := s.parsed[key]; ok {
		return tm, nil
	}
	t0 := time.Now()
	tm, _, err := parser.ParseTermWithOps(strings.TrimSuffix(string(sc.Blob), "."), s.ops)
	s.q.Phases.Add(obs.PhaseParse, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("core: %s/%d clause %d: %w", p.Name, p.Arity, sc.ClauseID, err)
	}
	s.parsed[key] = tm
	return tm, nil
}

// endQuery is the one place a query ends: at exhaustion, Close or an error,
// at the next query, and at Session.Close. A query still open has its
// envelope closed, its profile drained and its trace written; then its
// stats, with any work done since, roll into the session totals, and the
// per-query transient state goes: in baseline mode the query's interpreter
// worker, the stored rules fetched for it (the paper's "erased to make
// room") and the parsed clause texts.
func (s *Session) endQuery() {
	s.gen.stop()
	s.gen = nil
	if s.qOpen {
		s.qOpen = false
		s.disarm()
		s.traceQuery(s.chargeExec())
	}
	s.cum.AddQuery(&s.q)
	s.q.Reset()
	// Resident code survives across queries: the paper keeps dynamically
	// loaded procedures in main memory until the code garbage collector
	// reclaims them. A simple epoch clear bounds it.
	if s.nresident > loadedCacheLimit {
		s.evictAll()
	}
	clear(s.fetched)
	clear(s.parsed)
}

// interpTrap answers the baseline interpreter's call of a procedure it
// holds no clauses for: a session builtin with its answers as the facts
// the call resolves against, then a procedure looked up in the knowledge
// base's procedures table at call time, then a relation of the catalog,
// whose tuples it passes to emit. A facts-only procedure stored as text
// takes Educe's tuple-at-a-time interface to the record manager (§3.2.1):
// its tuples are pre-unified in the EDB, parsed and unified with the goal
// one by one, each match passed to emit. Any other procedure is fetched
// whole (the baseline's poor selectivity) and parsed once per query, each
// clause counted as the assert §2 itemises among the per-use costs, and
// handed to the call, which resolves against the clauses; they are
// dropped at query end or at a write of the procedure. It reports whether
// the builtin, procedure or relation exists.
func (s *Session) interpTrap(goal term.Term, env *interp.Env, emit func() bool) ([]interp.Clause, bool, error) {
	pi := goal.Indicator()
	if f, ok := sessionBuiltins[pi]; ok {
		as, err := f(s, headArgsOf(env.ResolveDeep(goal)))
		cs := make([]interp.Clause, len(as))
		for i, a := range as {
			if cs[i].Term = goal; len(a) > 0 {
				cs[i].Term = term.Comp(pi.Name, a...)
			}
		}
		return cs, true, err
	}
	if cs, ok := s.fetched[pi]; ok {
		return cs, true, nil
	}
	took := s.rlock()
	p := s.kb.db.Proc(pi.Name, pi.Arity)
	if p == nil {
		s.runlock(took)
		args := headArgsOf(goal)
		next := s.openRelation(pi, func(i int) (rel.Value, bool) { return termValue(env.ResolveDeep(args[i])) })
		for next != nil {
			t, err := next()
			if err != nil || t == nil {
				return nil, true, err
			}
			mark := env.Mark()
			if env.Unify(goal, tupleTerm(pi, t)) && !emit() {
				return nil, true, nil
			}
			env.Undo(mark)
		}
		return nil, false, nil
	}
	if p.Form == edb.FormCode {
		s.runlock(took)
		return nil, false, fmt.Errorf("core: %s stored compiled; baseline engine cannot interpret it", pi)
	}
	tuples := p.FactsOnly
	var keys []edb.ArgKey
	if tuples {
		keys = make([]edb.ArgKey, p.K)
		for i, a := range headArgsOf(goal)[:p.K] {
			keys[i] = argKeyOf(env.ResolveDeep(a))
		}
	}
	// The read lock covers only the retrieval: the blobs are copies, and
	// emit may call this procedure again (a join of a relation with
	// itself), which must not recurse into the lock.
	scs, err := s.kb.db.RetrieveObs(p, keys, &s.q)
	s.runlock(took)
	if err != nil {
		return nil, false, err
	}
	var cs []interp.Clause
	for _, sc := range scs {
		tm, err := s.parseStored(p, sc)
		if err != nil {
			return nil, false, err
		}
		if !tuples {
			cs = append(cs, interp.Clause{Term: tm})
			continue
		}
		mark := env.Mark()
		if h, _ := interp.SplitClause(term.Rename(tm)); env.Unify(goal, h) && !emit() {
			return nil, true, nil
		}
		env.Undo(mark)
	}
	if !tuples {
		s.q.Asserts += uint64(len(cs))
		s.fetched[pi] = cs
	}
	return cs, true, nil
}
