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

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// onUndefined is the interpreter trap of §3.2.1: a call to a procedure
// with no resident code consults the procedures table and, for an external
// procedure, invokes the dynamic loader. The loader pre-unifies in the EDB
// using the call's bound arguments, decodes the candidate relocatable
// clauses, resolves their associative addresses and splices control code.
//
// The decoded (still relocatable) candidate sets are shared across
// sessions through the knowledge base's code cache; only the final link
// against this session's machine is per-session. The KB read lock is held
// across the storage access, never across linking or execution.
func (s *Session) onUndefined(m *wam.Machine, fn dict.ID) (*wam.Proc, error) {
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

	// Build the pre-unification filter from the call's argument
	// registers. Rule procedures are always loaded whole and frozen for
	// the query (the paper's §3.2.1 "freeze the definition": in-memory
	// switch instructions then dispatch between their clauses); facts
	// relations are filtered per goal, where EDB selectivity pays.
	keys := make([]edb.ArgKey, p.K)
	allWild := true
	for i := 0; i < p.K; i++ {
		if s.opts.DisablePreUnification || !p.FactsOnly {
			keys[i] = edb.WildKey()
			continue
		}
		keys[i] = s.cellArgKey(m.Deref(m.Reg(i)))
		if !keys[i].Wild {
			allWild = false
		}
	}

	fk := filterKeyOf(keys)
	if rp := s.resident[pi]; rp != nil {
		if proc := rp.variants[fk]; proc != nil {
			unlock()
			return proc, nil
		}
	}
	// The proc version is stable while we hold the read lock (writers
	// hold the write lock across store + invalidate), so code fetched
	// below is consistently tagged.
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
	m.AddBlock(blk)
	proc := &wam.Proc{Fn: fn, Arity: arity, Block: blk, External: true, Transient: true}

	rp := s.residentFor(pi, ver)
	if rp.variants == nil {
		rp.variants = map[filterKey]*wam.Proc{}
	}
	rp.variants[fk] = proc
	s.nresident++
	if allWild {
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

// cellArgKey derives a pre-unification key from an argument cell.
func (s *Session) cellArgKey(c wam.Cell) edb.ArgKey {
	m := s.m
	switch c.Tag() {
	case wam.TagCon:
		return edb.AtomKey(m.Dict.Name(c.AtomID()))
	case wam.TagInt:
		return edb.IntKey(c.IntVal())
	case wam.TagFlt:
		return edb.FloatKey(floatBits(m.Float(c)))
	case wam.TagLis:
		return edb.ListKey()
	case wam.TagStr:
		f := m.Heap(c.Val())
		return edb.StructKey(m.Dict.Name(f.FunID()), f.FunArity())
	default:
		return edb.WildKey()
	}
}

// endQuery tears down per-query transient state: in baseline mode the
// rules asserted into the interpreter (the paper's "erased to make room")
// and the parsed-tuple caches.
func (s *Session) endQuery() {
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
