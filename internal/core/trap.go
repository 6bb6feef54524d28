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
	"repro/internal/term"
	"repro/internal/wam"
)

// onUndefined is the interpreter trap of §3.2.1: a call to a procedure
// with no installed code consults the procedures table and, for an external
// procedure, invokes the dynamic loader. The loader pre-unifies in the EDB
// using the call's bound arguments, decodes the candidate relocatable
// clauses, resolves their associative addresses and splices control code.
//
// A call whose variant is already resident is served first, from its
// argument cells: under the KB read lock (as rlock takes it) and only while
// nothing was written since the session last reconciled, it touches no page,
// so it neither tallies nor looks the procedure up. Every other call takes
// the loader path below.
//
// The decoded (still relocatable) candidate sets are shared across
// sessions through the knowledge base's code cache; only the final link
// against this session's machine is per-session. The KB read lock is held
// across the storage access, never across linking or execution.
func (s *Session) onUndefined(m *wam.Machine, fn dict.ID) (*wam.Proc, error) {
	if rp := s.resident[fn]; rp != nil && rp.keyed > 0 {
		if proc := s.residentHit(rp, callKeyOf(m, rp.keyed)); proc != nil {
			return proc, nil
		}
	}
	name := m.Dict.Name(fn)
	arity := m.Dict.Arity(fn)
	pi := term.Indicator{Name: name, Arity: arity}

	unlock := s.rlock()
	p := s.kb.db.Proc(name, arity)
	if p == nil {
		unlock()
		return nil, nil // genuinely unknown
	}

	// Set-at-a-time attempt (§4's second evaluation strategy): an
	// external rule predicate whose dependency closure is safe Datalog
	// over EDB/catalog leaves is evaluated bottom-up with semi-naive
	// deltas and frozen as a materialized binding stream. Ineligible
	// predicates (and StrategyTuple sessions) continue below on the
	// tuple-at-a-time loader path.
	if s.opts.Strategy != StrategyTuple && p.Form == edb.FormCode && !p.FactsOnly {
		unlock()
		proc, err := s.trySetops(fn, pi)
		if err != nil || proc != nil {
			return proc, err
		}
		unlock = s.rlock()
		if p = s.kb.db.Proc(name, arity); p == nil {
			unlock()
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
	ck := callKeyOf(m, keyed)
	if proc := s.resident[fn].lookup(ck); proc != nil {
		unlock()
		return proc, nil
	}
	// A miss: build the pre-unification filter from the call key. The proc
	// version is stable while we hold the read lock (writers hold the write
	// lock across store + invalidate), so code fetched below is
	// consistently tagged.
	keys := make([]edb.ArgKey, p.K)
	for i := range keys {
		keys[i] = s.cellArgKey(&ck, i)
	}
	ver := s.kb.storedVersion(pi)
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
	unlock()
	if err != nil {
		return nil, err
	}
	s.m.Profiler().AttributeIO(fn, s.q.Retrievals-retr0, s.q.PagesTouched-pages0)

	if form == edb.FormSource {
		// A source-form procedure reached from compiled execution:
		// parse and compile on the fly (the hybrid path).
		var terms []term.Term
		t1 := time.Now()
		for _, sc := range scs {
			tm, _, err := parser.ParseTermWithOps(strings.TrimSuffix(string(sc.Blob), "."), s.ops)
			if err != nil {
				return nil, fmt.Errorf("core: %s/%d clause %d: %w", name, arity, sc.ClauseID, err)
			}
			terms = append(terms, tm)
		}
		s.q.Phases.Add(obs.PhaseParse, time.Since(t1))
		units, _, err := s.compileProgram(terms)
		if err != nil {
			return nil, err
		}
		clauses = units[pi]
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
	v := &variant{Proc: wam.Proc{Fn: fn, Arity: arity, Block: blk, External: true, Transient: true}, fk: filterKeyOf(keys)}
	proc := &v.Proc

	rp := s.residentFor(fn, pi, ver)
	rp.keyed = keyed
	rp.variants[ck] = v
	s.nresident++
	if ck == (callKey{}) {
		// The whole definition was loaded: install it so every later
		// call — in this query and the following ones — skips the trap
		// entirely. This is the paper's "freezing" of the procedure
		// definition; the in-memory switch instructions now dispatch
		// between its clauses. The stub returns when the definition
		// is evicted.
		m.DefineProc(proc)
	}
	return proc, nil
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

// residentHit returns the resident variant for call key ck, or nil when
// there is none or a write since the session last reconciled may have
// changed it (the loader path then decides). It takes the KB read lock as
// rlock does, outside the session's own transaction.
func (s *Session) residentHit(rp *residentProc, ck callKey) *wam.Proc {
	if s.txn == nil {
		s.kb.mu.RLock()
		defer s.kb.mu.RUnlock()
	}
	if s.kb.version.Load() != s.synced {
		return nil
	}
	return rp.lookup(ck)
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

// endQuery tears down per-query transient state: in baseline mode the
// query's interpreter worker, the rules asserted into the interpreter (the
// paper's "erased to make room") and the parsed-tuple caches.
func (s *Session) endQuery() {
	s.gen.stop()
	s.gen = nil
	// Resident code survives across queries: the paper keeps dynamically
	// loaded procedures in main memory until the code garbage collector
	// reclaims them. A simple epoch clear bounds it.
	if s.nresident > loadedCacheLimit {
		s.evictAll()
	}
	for _, pi := range s.interpLoaded {
		s.in.RetractAll(pi)
	}
	s.interpLoaded = s.interpLoaded[:0]
	for _, c := range s.factCaches {
		clear(c)
	}
}

// interpTrap serves the baseline interpreter: rules are fetched from the
// EDB in source form, parsed and asserted — the per-use cost the paper's
// §2 itemises. They are erased again at query end.
func (s *Session) interpTrap(in *interp.Interp, pi term.Indicator) (bool, error) {
	unlock := s.rlock()
	p := s.kb.db.Proc(pi.Name, pi.Arity)
	if p == nil {
		unlock()
		return false, nil
	}
	form := p.Form
	// Poor selectivity: the baseline retrieves every clause of the
	// procedure (paper §3.2.1).
	scs, err := s.kb.db.RetrieveObs(p, nil, &s.q)
	unlock()
	if err != nil {
		return false, err
	}
	for _, sc := range scs {
		var tm term.Term
		switch form {
		case edb.FormSource:
			t1 := time.Now()
			tm, _, err = parser.ParseTermWithOps(strings.TrimSuffix(string(sc.Blob), "."), s.ops)
			s.q.Phases.Add(obs.PhaseParse, time.Since(t1))
			if err != nil {
				return false, err
			}
		case edb.FormCode:
			return false, fmt.Errorf("core: %s stored compiled; baseline engine cannot interpret it", pi)
		}
		if err := in.Assert(tm); err != nil {
			return false, err
		}
		s.q.Asserts++
	}
	s.interpLoaded = append(s.interpLoaded, pi)
	return true, nil
}

// registerFactResolver gives the baseline interpreter tuple-at-a-time
// access to a facts-only external procedure — Educe's deterministic
// interface to the record manager (§3.2.1) — instead of assert-based
// loading. Parsed tuples are cached per clause so repeated access models
// cheap tuple interpretation rather than re-parsing.
func (s *Session) registerFactResolver(p *edb.ProcInfo) {
	pi := term.Indicator{Name: p.Name, Arity: p.Arity}
	if s.resolvers[pi] {
		return
	}
	s.resolvers[pi] = true
	// Parsed tuples are cached only for the current query: Educe pays
	// for parsing terms retrieved from the DBMS on each use (§2.3), and
	// the cache is flushed with the rest of the per-query state.
	cache := map[uint32]term.Term{}
	s.factCaches = append(s.factCaches, cache)
	s.in.RegisterExternal(pi, func(goal term.Term, env *interp.Env, emit func() bool) error {
		keys := make([]edb.ArgKey, p.K)
		gargs := goalTermArgs(goal)
		for i := 0; i < p.K && i < len(gargs); i++ {
			keys[i] = argKeyOf(env.ResolveDeep(gargs[i]))
		}
		// The read lock covers only the retrieval: the returned blobs
		// are copies, and emit() may re-enter this resolver (a join of
		// the relation with itself), which must not recurse into the
		// lock.
		unlock := s.rlock()
		scs, err := s.kb.db.RetrieveObs(p, keys, &s.q)
		unlock()
		if err != nil {
			return err
		}
		for _, sc := range scs {
			tm, ok := cache[sc.ClauseID]
			if !ok {
				var perr error
				t1 := time.Now()
				tm, _, perr = parser.ParseTermWithOps(strings.TrimSuffix(string(sc.Blob), "."), s.ops)
				s.q.Phases.Add(obs.PhaseParse, time.Since(t1))
				if perr != nil {
					return perr
				}
				cache[sc.ClauseID] = tm
			}
			mark := env.Mark()
			if env.Unify(goal, term.Rename(tm)) {
				if !emit() {
					return nil
				}
			}
			env.Undo(mark)
		}
		return nil
	})
}

func goalTermArgs(goal term.Term) []term.Term {
	if c, ok := goal.(*term.Compound); ok {
		return c.Args
	}
	return nil
}
