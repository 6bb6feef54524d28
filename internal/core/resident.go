package core

import (
	"slices"
	"time"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/edb"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/wam"
)

// Code residency (paper §3.2.1, §3.3.2): the dynamic loader freezes a
// loaded definition in main memory until the code garbage collector
// reclaims it; the EDB copy needs no collection. Both sides keep one table
// keyed by procedure, then by variant. The knowledge base holds the
// decoded, still relocatable clause sets every session links from, by
// pre-unification filter, the version that every write to the stored
// procedure bumps, and a log of the last writes' keys. A session holds what
// it linked, by functor and then by the call's argument cells, each variant
// with its filter and tagged with the version it saw, so a call that finds
// its variant resident hashes no name. A write changes only the variants
// whose filter admits the written clause (edb.Admits): the knowledge base
// drops those at once, a session when it catches up through the log. A
// table that the first write finds holding variants counts them by key from
// then on, until they go, and a write the counts show none admits visits none.
// Resident code leaves a session through evict and nowhere else, and
// reconcile decides when.
//
// A session also keeps the goal texts it ran, by text: a one-call text as
// the call, any other as its linked $query code. Both name callees by functor
// and builtins by a stable slot, so no write makes them stale; op/3, which
// can change how a text reads, drops them.

// filterKey names one variant of a stored procedure: the pre-unification
// key of each indexed head argument (a procedure uses its first K).
type filterKey [edb.MaxIndexedArgs]edb.ArgKey

func filterKeyOf(keys []edb.ArgKey) (fk filterKey) {
	copy(fk[:], keys)
	return fk
}

// keyCounts counts a table's variants by position and key (wild: WildKey());
// a write bound at a position to a key none has and none is wild at admits none.
type keyCounts map[keyAt]int32

type keyAt struct {
	j int
	k edb.ArgKey
}

// add counts a variant with filter fk d more times, unless kc is nil.
func (kc keyCounts) add(fk *filterKey, d int32) {
	for j := 0; kc != nil && j < len(fk); j++ {
		if kc[keyAt{j, fk[j]}] += d; kc[keyAt{j, fk[j]}] == 0 {
			delete(kc, keyAt{j, fk[j]})
		}
	}
}

// mayAdmit reports whether some counted variant may admit a key of writes.
func (kc keyCounts) mayAdmit(writes ...filterKey) bool {
	return slices.ContainsFunc(writes, func(w filterKey) bool {
		for j, k := range w {
			if !k.Wild && kc[keyAt{j, k}] == 0 && kc[keyAt{j, edb.WildKey()}] == 0 {
				return false
			}
		}
		return true
	})
}

// admits is the eviction scan's test (by value: a test counts its calls).
var admits = func(fk, w filterKey) bool { return edb.Admits(fk[:], w[:]) }

// sharedProc is the knowledge base's record of one stored procedure.
type sharedProc struct {
	ver      uint64 // bumped by every invalidation
	variants map[filterKey][]compiler.ClauseCode
	counts   keyCounts   // of variants, once a write found some
	log      []filterKey // keys of the last writeLogLen writes; version v's at (v-1) % writeLogLen
	// notDatalog is ver+1 when a clause of the procedure at version ver
	// was found not to decompile to Datalog; any other value is no verdict.
	notDatalog uint64
}

// writeLogLen is how many writes a procedure's log keeps; a session further
// behind than that evicts the procedure whole.
const writeLogLen = 16

// callKey names one variant of a session's resident code by the cells of
// the call's first K argument registers: an atom or an integer as it is (the
// session dictionary never reuses an ID), a structure by its functor cell,
// any list as MakeLis(0), an unbound argument as the zero cell, and a float
// by its bits, flagged in floats (a float cell only indexes the float table,
// which every query empties).
type callKey struct {
	args   [edb.MaxIndexedArgs]wam.Cell
	floats uint8
}

// variant is one linked variant with the filter it was retrieved under.
type variant struct {
	wam.Proc
	fk filterKey
}

// residentProc is one session's linked code for one stored procedure:
// tuple-at-a-time variants by call key (the all-wild one is also installed
// in the machine's procedure table, else the hit entry is) or a
// materialised set-at-a-time fixpoint, installed likewise. keyed is how
// many argument registers a call key reads (a facts relation, in a session
// with pre-unification on), else 0.
type residentProc struct {
	pi       term.Indicator
	ver      uint64 // stored-procedure version at link time
	keyed    int
	variants map[callKey]*variant
	counts   keyCounts // of variants' filters, once a write found some
	setops   *setopsInfo
	entry    wam.Proc // the hit entry, once a keyed variant is filed
}

// sharedCacheLimit caps the number of shared decoded variants before an
// epoch clear (the code garbage collection of §3.3.2 applied to the
// KB-level table).
const sharedCacheLimit = 4096

// loadedCacheLimit caps a session's resident variants and materialised
// results; past it the whole table is evicted at query end (paper §3.3.2:
// main-memory code is garbage collected, the EDB copy needs none).
const loadedCacheLimit = 1024

// linkedQuery is one goal text's entry: a call of fn, names its variables
// in sorted order. Either proc is the text's own linked $query/N over them,
// or proc is nil and the text is one call of a procedure with arguments
// args, a variable's a reference to its index in names; up to six
// arguments fit the entry's own buffers, so it is one allocation.
type linkedQuery struct {
	fn      dict.ID
	proc    *wam.Proc
	names   []string
	args    []wam.Cell
	nameBuf [6]string
	argBuf  [6]wam.Cell
}

// queryCacheLimit caps a session's linked query texts; past it the oldest
// is evicted, one at a time.
const queryCacheLimit = 512

// --- knowledge-base side ----------------------------------------------------

// sharedFor returns pi's record, creating it. Caller holds cacheMu.
func (kb *KnowledgeBase) sharedFor(pi term.Indicator) *sharedProc {
	sp := kb.shared[pi]
	if sp == nil {
		sp = &sharedProc{}
		kb.shared[pi] = sp
	}
	return sp
}

// storedVersion returns pi's invalidation version. Sessions record it when
// they link code so they can later tell whether their copy is stale. It
// is stable while the caller holds kb.mu: writers hold the write lock
// across store and invalidate.
func (kb *KnowledgeBase) storedVersion(pi term.Indicator) uint64 {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	return kb.sharedFor(pi).ver
}

// knownNotDatalog reports whether pi's clauses at its current version
// were found not to decompile to Datalog.
func (kb *KnowledgeBase) knownNotDatalog(pi term.Indicator) bool {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	sp := kb.shared[pi]
	return sp != nil && sp.notDatalog == sp.ver+1
}

// markNotDatalog records that pi's clauses at version ver do not decompile
// to Datalog, unless a write has moved pi past ver since they were read.
// Every write makes the verdict stale, as it bumps the version.
func (kb *KnowledgeBase) markNotDatalog(pi term.Indicator, ver uint64) {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	if sp := kb.sharedFor(pi); sp.ver == ver {
		sp.notDatalog = ver + 1
	}
}

// lookupShared returns the decoded candidate set of one variant, if
// cached. Callers must hold kb.mu (shared or exclusive) so the entry
// cannot be invalidated between lookup and use.
func (kb *KnowledgeBase) lookupShared(pi term.Indicator, fk filterKey) ([]compiler.ClauseCode, bool) {
	kb.cacheMu.Lock()
	ccs, ok := kb.sharedFor(pi).variants[fk]
	kb.cacheMu.Unlock()
	if ok {
		kb.cacheHits.Inc()
	} else {
		kb.cacheMisses.Inc()
	}
	return ccs, ok
}

// storeShared publishes a decoded candidate set. Callers must hold kb.mu
// (shared or exclusive): invalidation takes kb.mu exclusively, so an
// entry stored under the lock reflects the current stored clauses. Racing
// loaders of the same variant are harmless — both decode the same stored
// clauses and the second store is a no-op.
func (kb *KnowledgeBase) storeShared(pi term.Indicator, fk filterKey, ccs []compiler.ClauseCode) {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	if kb.nvariants >= sharedCacheLimit {
		for _, sp := range kb.shared {
			sp.variants, sp.counts = nil, nil
		}
		kb.nvariants = 0
	}
	sp := kb.sharedFor(pi)
	if _, ok := sp.variants[fk]; !ok {
		if sp.variants == nil {
			sp.variants = map[filterKey][]compiler.ClauseCode{}
		}
		sp.variants[fk] = ccs
		sp.counts.add(&fk, 1)
		kb.nvariants++
	}
	kb.cacheEntries.Set(int64(kb.nvariants))
}

// invalidateProc records a write to pi of a clause with head keys keys (nil:
// a write that may change every variant, logged as the all-wild key that
// admits them all). It drops the shared variants the keys admit, bumps pi's
// version and logs the keys, so sessions drop the same variants of their
// resident copies. Callers must hold the KB write lock (or be the only user
// of the KB).
func (kb *KnowledgeBase) invalidateProc(pi term.Indicator, keys []edb.ArgKey) {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	sp := kb.sharedFor(pi)
	w := filterKeyOf(keys)
	for i := range w {
		w[i].Wild = w[i].Wild || keys == nil
	}
	if sp.counts == nil && len(sp.variants) > 0 {
		sp.counts = keyCounts{}
		for fk := range sp.variants {
			sp.counts.add(&fk, 1)
		}
	}
	if sp.counts.mayAdmit(w) {
		for fk := range sp.variants {
			if admits(fk, w) {
				delete(sp.variants, fk)
				sp.counts.add(&fk, -1)
				kb.nvariants--
				kb.cacheInvals.Inc()
			}
		}
	}
	sp.ver++
	kb.version.Add(1)
	if len(sp.log) < writeLogLen {
		sp.log = append(sp.log, w)
	} else {
		sp.log[(sp.ver-1)%writeLogLen] = w
	}
	kb.cacheEntries.Set(int64(kb.nvariants))
}

// writesSince appends to buf the keys of the writes that took pi from
// version from to version to, or returns nil when the log no longer reaches
// back to from.
func (kb *KnowledgeBase) writesSince(pi term.Indicator, from, to uint64, buf []filterKey) []filterKey {
	kb.cacheMu.Lock()
	defer kb.cacheMu.Unlock()
	sp := kb.shared[pi]
	if sp == nil || from > to || sp.ver-from > uint64(len(sp.log)) {
		return nil
	}
	for v := from + 1; v <= to; v++ {
		buf = append(buf, sp.log[(v-1)%writeLogLen])
	}
	return buf
}

// InvalidateLoaded drops shared cached code for one external procedure;
// every session reloads it from the EDB on next use.
func (kb *KnowledgeBase) InvalidateLoaded(name string, arity int) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	kb.invalidateProc(term.Indicator{Name: name, Arity: arity}, nil)
}

// --- session side -----------------------------------------------------------

// residentFor returns the session's record for pi (functor fn) at stored
// version ver, first bringing an older record up to ver.
func (s *Session) residentFor(fn dict.ID, pi term.Indicator, ver uint64) *residentProc {
	rp := s.catchUp(fn, s.resident[fn], ver)
	if rp == nil {
		rp = &residentProc{pi: pi, ver: ver, variants: map[callKey]*variant{}}
		s.resident[fn] = rp
	}
	return rp
}

// catchUp brings rp from its version to stored version ver: it evicts the
// variants the logged writes in between admit, or the whole record when the
// log no longer reaches back to rp.ver. It returns the record, now at ver,
// or nil once it is gone (or was nil), so a variant is only ever filed under
// the version its clauses were read at.
func (s *Session) catchUp(fn dict.ID, rp *residentProc, ver uint64) *residentProc {
	if rp == nil || rp.ver == ver {
		return rp
	}
	var buf [writeLogLen]filterKey
	s.evict(fn, rp, s.kb.writesSince(rp.pi, rp.ver, ver, buf[:0]))
	rp.ver = ver
	return s.resident[fn]
}

// evict drops the variants of a procedure's resident code that the keys of
// one of writes admit, or, with nil writes or a record holding a fixpoint,
// all of it; a record left empty goes. A dropped entry that is installed
// is uninstalled, so the next call traps and reloads from the EDB; an
// entry that is not the record's own (code consulted over it) stays. It is
// safe at any time, mid-query included: the machine only retires the
// blocks, so a running iteration finishes over the clauses it started with
// (the logical update view) and the slots are reclaimed once no frame
// addresses them.
func (s *Session) evict(fn dict.ID, rp *residentProc, writes []filterKey) {
	whole := writes == nil || rp.setops != nil
	if !whole && rp.counts == nil {
		rp.counts = keyCounts{}
		for _, v := range rp.variants {
			rp.counts.add(&v.fk, 1)
		}
	}
	if !whole && !rp.counts.mayAdmit(writes...) {
		return
	}
	for ck, v := range rp.variants {
		drop := whole
		for _, w := range writes {
			drop = drop || admits(v.fk, w)
		}
		if drop {
			s.m.UndefineProc(&v.Proc)
			s.m.RemoveBlock(v.Block)
			delete(rp.variants, ck)
			rp.counts.add(&v.fk, -1)
			s.nresident--
		}
	}
	if so := rp.setops; so != nil {
		s.m.UndefineProc(so.proc)
		s.m.RemoveBlock(so.proc.Block)
		so.prog, so.totals = nil, nil // the cursor builtin outlives the result
		s.nresident--
		s.nsetops--
	}
	if len(rp.variants) == 0 {
		s.m.UndefineProc(&rp.entry)
		delete(s.resident, fn)
	}
}

// evictAll empties the resident table: the epoch clear of the code
// garbage collector, a rule-storage switch, Close.
func (s *Session) evictAll() {
	for fn, rp := range s.resident {
		s.evict(fn, rp, nil)
	}
}

// linkQuery returns the table entry of goal text q, its code installed and
// ready to call. A new text that scans as one call of a procedure is that
// call; any other is parsed, compiled and linked, and one that fails to is
// not cached.
func (s *Session) linkQuery(q string) (*linkedQuery, error) {
	lq := s.queries[q]
	if lq == nil {
		if lq = s.directCall(q); lq == nil {
			var err error
			if lq, err = s.linkGoal(q); err != nil {
				return nil, err
			}
		}
		if len(s.queryOrder) == queryCacheLimit {
			s.dropQuery(s.queryOrder[0])
			s.queryOrder = s.queryOrder[1:]
		}
		s.queries[q] = lq
		s.queryOrder = append(s.queryOrder, q)
	}
	if lq.proc != nil {
		s.m.DefineProc(lq.proc)
	}
	return lq, nil
}

// linkGoal parses, compiles and links goal text q as $query/N over its
// variables.
func (s *Session) linkGoal(q string) (*linkedQuery, error) {
	body, vars, names, err := s.parseQuery(q)
	if err != nil {
		return nil, err
	}
	vlist := make([]*term.Var, len(names))
	for i, n := range names {
		vlist[i] = vars[n]
	}
	t0 := time.Now()
	ccs, err := s.comp.CompileQuery("$query", vlist, body)
	s.q.Phases.Add(obs.PhaseCompile, time.Since(t0))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	defer func() { s.q.Phases.Add(obs.PhaseLink, time.Since(t1)) }()
	blk, err := loader.BuildBlock(s.m, "$query", len(vlist), ccs, loader.Options{Index: !s.opts.DisableIndexing})
	if err != nil {
		return nil, err
	}
	p := &wam.Proc{Fn: s.m.Dict.Intern("$query", len(vlist)), Arity: len(vlist), Block: s.m.AddBlock(blk)}
	return &linkedQuery{fn: p.Fn, proc: p, names: names}, nil
}

// dropQuery evicts one text. Its $query block is retired, so a running
// query finishes on it, and $query/N is uninstalled only if it is this
// text's; a direct call holds no code.
func (s *Session) dropQuery(q string) {
	if p := s.queries[q].proc; p != nil {
		s.m.UndefineProc(p)
		s.m.RemoveBlock(p.Block)
	}
	delete(s.queries, q)
}

// dropQueries empties the linked-query table: an op/3 directive, Close.
func (s *Session) dropQueries() {
	for _, q := range s.queryOrder {
		s.dropQuery(q)
	}
	s.queryOrder = nil
}

// reconcile is the one pass that brings resident code up to date with the
// knowledge base: each procedure whose stored clauses changed since this
// session linked them catches up, and a materialised fixpoint one of whose
// rule procedures changed is evicted; one only whose leaves changed is
// parked. It runs at query start, giving each query a fresh view, and
// after a rollback, so the rest of the running query sees the restored
// state. The caller must not hold the KB lock outside a transaction.
func (s *Session) reconcile() {
	v := s.kb.version.Load()
	if v == s.synced && s.nsetops == 0 {
		// No stored procedure changed, and only a materialised result can
		// go stale otherwise (through a catalog relation).
		return
	}
	for fn, rp := range s.resident {
		if v == s.synced || s.catchUp(fn, rp, s.kb.storedVersion(rp.pi)) != nil {
			s.settle(fn, rp, v, true)
		}
	}
	s.synced = v
}

// settle evicts a materialised fixpoint a rule procedure of which changed
// (v is the KB invalidation version), and parks one only whose leaves did
// (with rels, catalog cardinalities checked too) as the base its next call
// maintains: uninstalled, so that call traps, with its block kept for the
// maintained result. Running cursors keep their tuples.
func (s *Session) settle(fn dict.ID, rp *residentProc, v uint64, rels bool) {
	so := rp.setops
	if so == nil || so.stale {
		return
	}
	stale := false
	if rels && len(so.relDeps) > 0 {
		// Relation inserts do not bump the KB invalidation version, so the
		// cardinalities are compared every time, under the KB read lock.
		took := s.rlock()
		for name, n := range so.relDeps {
			r := s.kb.cat.Get(name)
			stale = stale || r == nil || r.Count() != n
		}
		s.runlock(took)
	}
	if so.builtAt != v {
		for dep, ver := range so.deps {
			if s.kb.storedVersion(dep) == ver {
				continue
			}
			if _, leaf := so.prog.Leaves[dep]; !leaf {
				s.evict(fn, rp, nil)
				return
			}
			stale = true
		}
		so.builtAt = v
	}
	if so.stale = stale; stale {
		s.m.UndefineProc(so.proc)
	}
}

// invalidateStored records that this session wrote a clause with head keys
// keys to a stored procedure (nil: a change to every variant). The shared
// record drops the variants the keys admit, other sessions drop theirs at
// their next query, and this session's own copy catches up now; the
// fixpoints computed from it are settled (a stored-clause write leaves the
// catalog relations alone), and the interpreter fetches pi afresh at its
// next call in this query. An open transaction notes the procedure for its
// rollback. Caller holds the KB write lock.
func (s *Session) invalidateStored(pi term.Indicator, keys []edb.ArgKey) {
	s.kb.invalidateProc(pi, keys)
	delete(s.fetched, pi)
	if s.txn != nil {
		s.txn.touched[pi] = true
	}
	v := s.kb.version.Load()
	for fn, rp := range s.resident {
		if rp.pi == pi {
			s.catchUp(fn, rp, s.kb.storedVersion(pi))
		} else {
			s.settle(fn, rp, v, false)
		}
	}
}

// InvalidateLoaded drops cached (and installed) code for one external
// procedure — in this session and in the shared knowledge-base table —
// so the next call traps and reloads from the EDB. Other
// sessions reload at their next query. The engine calls it automatically
// when stored clauses change.
func (s *Session) InvalidateLoaded(name string, arity int) {
	defer s.wunlock(s.wlock())
	s.invalidateStored(term.Indicator{Name: name, Arity: arity}, nil)
}
