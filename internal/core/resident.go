package core

import (
	"time"

	"repro/internal/compiler"
	"repro/internal/edb"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/term"
	"repro/internal/wam"
)

// Code residency (paper §3.2.1, §3.3.2): the dynamic loader freezes a
// loaded definition in main memory until the code garbage collector
// reclaims it; the EDB copy needs no collection. Both sides keep one table
// keyed by procedure, then by pre-unification filter. The knowledge base
// holds the decoded, still relocatable clause sets every session links
// from, the version that every write to the stored procedure bumps, and a
// log of the last writes' keys. A session holds what it linked, tagged with
// the version it saw. A write changes only the variants whose filter admits
// the written clause (edb.Admits): the knowledge base drops those at once, a
// session when it catches up through the log. Resident code leaves a
// session through evict and nowhere else, and reconcile decides when.
//
// A session also keeps the queries it linked, by goal text. Their code names
// callees by functor and builtins by a stable slot, so no write makes it
// stale; an op/3 directive, which can change how a text reads, drops them.

// filterKey names one variant of a stored procedure: the pre-unification
// key of each indexed head argument (a procedure uses its first K).
type filterKey [edb.MaxIndexedArgs]edb.ArgKey

func filterKeyOf(keys []edb.ArgKey) (fk filterKey) {
	copy(fk[:], keys)
	return fk
}

// sharedProc is the knowledge base's record of one stored procedure.
type sharedProc struct {
	ver      uint64 // bumped by every invalidation
	variants map[filterKey][]compiler.ClauseCode
	log      []filterKey // keys of the last writeLogLen writes; version v's at (v-1) % writeLogLen
}

// writeLogLen is how many writes a procedure's log keeps; a session further
// behind than that evicts the procedure whole.
const writeLogLen = 16

// residentProc is one session's linked code for one stored procedure:
// tuple-at-a-time variants by filter (the all-wild one is also installed
// in the machine's procedure table) or a materialised set-at-a-time
// fixpoint, installed likewise.
type residentProc struct {
	ver      uint64 // stored-procedure version at link time
	variants map[filterKey]*wam.Proc
	setops   *setopsInfo
	aux      []term.Indicator // a source-form procedure's auxiliaries
}

// sharedCacheLimit caps the number of shared decoded variants before an
// epoch clear (the code garbage collection of §3.3.2 applied to the
// KB-level table).
const sharedCacheLimit = 4096

// loadedCacheLimit caps a session's resident variants and materialised
// results; past it the whole table is evicted at query end (paper §3.3.2:
// main-memory code is garbage collected, the EDB copy needs none).
const loadedCacheLimit = 1024

// linkedQuery is one goal text's linked code: $query/N over the goal's
// variables in names order, and the auxiliaries lifted out of the goal.
type linkedQuery struct {
	names []string
	procs []*wam.Proc
}

// queryCacheLimit caps a session's linked queries; past it the oldest
// entry is evicted, one at a time.
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
	if sp := kb.shared[pi]; sp != nil {
		return sp.ver
	}
	return 0
}

// lookupShared returns the decoded candidate set of one variant, if
// cached. Callers must hold kb.mu (shared or exclusive) so the entry
// cannot be invalidated between lookup and use.
func (kb *KnowledgeBase) lookupShared(pi term.Indicator, fk filterKey) ([]compiler.ClauseCode, bool) {
	kb.cacheMu.Lock()
	var ccs []compiler.ClauseCode
	ok := false
	if sp := kb.shared[pi]; sp != nil {
		ccs, ok = sp.variants[fk]
	}
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
			sp.variants = nil
		}
		kb.nvariants = 0
	}
	sp := kb.sharedFor(pi)
	if _, ok := sp.variants[fk]; !ok {
		if sp.variants == nil {
			sp.variants = map[filterKey][]compiler.ClauseCode{}
		}
		sp.variants[fk] = ccs
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
	for fk := range sp.variants {
		if edb.Admits(fk[:], w[:]) {
			delete(sp.variants, fk)
			kb.nvariants--
			kb.cacheInvals.Inc()
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

// residentFor returns the session's record for pi at stored version ver,
// first bringing an older record up to ver.
func (s *Session) residentFor(pi term.Indicator, ver uint64) *residentProc {
	rp := s.catchUp(pi, s.resident[pi], ver)
	if rp == nil {
		rp = &residentProc{ver: ver}
		s.resident[pi] = rp
	}
	return rp
}

// catchUp brings rp from its version to stored version ver: it evicts the
// variants the logged writes in between admit, or the whole record when the
// log no longer reaches back to rp.ver. It returns the record, now at ver,
// or nil once it is gone (or was nil), so a variant is only ever filed under
// the version its clauses were read at.
func (s *Session) catchUp(pi term.Indicator, rp *residentProc, ver uint64) *residentProc {
	if rp == nil || rp.ver == ver {
		return rp
	}
	var buf [writeLogLen]filterKey
	s.evict(pi, rp, s.kb.writesSince(pi, rp.ver, ver, buf[:0]))
	rp.ver = ver
	return s.resident[pi]
}

// evict drops the variants of a procedure's resident code that the keys of
// one of writes admit, or, with nil writes or a record holding a fixpoint
// or auxiliaries, all of it; a record left empty goes. The trap stub
// returns if the installed code went, so the next call reloads from the
// EDB. It is safe at any time, mid-query included: the machine only retires
// the blocks, so a running iteration finishes over the clauses it started
// with (the logical update view) and the slots are reclaimed once no frame
// addresses them.
func (s *Session) evict(pi term.Indicator, rp *residentProc, writes []filterKey) {
	whole := writes == nil || rp.setops != nil || rp.aux != nil
	fn := s.m.Dict.Intern(pi.Name, pi.Arity)
	installed := s.m.Proc(fn)
	restub := whole && installed != nil && installed.Transient
	for fk, proc := range rp.variants {
		drop := whole
		for _, w := range writes {
			drop = drop || edb.Admits(fk[:], w[:])
		}
		if drop {
			s.m.RemoveBlock(proc.Block)
			delete(rp.variants, fk)
			s.nresident--
			restub = restub || proc == installed
		}
	}
	for _, api := range rp.aux {
		s.m.RemoveProc(s.m.Dict.Intern(api.Name, api.Arity))
	}
	if so := rp.setops; so != nil {
		s.m.RemoveBlock(so.proc.Block)
		so.prog, so.totals = nil, nil // the cursor builtin outlives the result
		s.nresident--
		s.nsetops--
	}
	if len(rp.variants) == 0 {
		delete(s.resident, pi)
	}
	if restub {
		s.m.DefineProc(&wam.Proc{Fn: fn, Arity: pi.Arity, External: true})
	}
}

// evictAll empties the resident table: the epoch clear of the code
// garbage collector, a rule-storage switch, Close.
func (s *Session) evictAll() {
	for pi, rp := range s.resident {
		s.evict(pi, rp, nil)
	}
}

// linkQuery returns the linked code of goal text q, installed and ready to
// call. Only a text the table does not hold is parsed, compiled and
// linked; one that fails to is not cached.
func (s *Session) linkQuery(q string) (*linkedQuery, error) {
	if lq := s.queries[q]; lq != nil {
		for _, p := range lq.procs {
			s.m.DefineProc(p)
		}
		return lq, nil
	}
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
	units := map[term.Indicator][]compiler.ClauseCode{}
	for _, cc := range ccs {
		units[cc.Pred] = append(units[cc.Pred], cc)
	}
	lq := &linkedQuery{names: names}
	for pi, cs := range units {
		blk, err := loader.BuildBlock(s.m, pi.Name, pi.Arity, cs, loader.Options{Index: !s.opts.DisableIndexing})
		if err != nil {
			return nil, err
		}
		lq.procs = append(lq.procs, &wam.Proc{Fn: s.m.Dict.Intern(pi.Name, pi.Arity), Arity: pi.Arity, Block: blk})
	}
	for _, p := range lq.procs {
		s.m.AddBlock(p.Block)
		s.m.DefineProc(p)
	}
	if len(s.queryOrder) == queryCacheLimit {
		s.dropQuery(s.queryOrder[0])
		s.queryOrder = s.queryOrder[1:]
	}
	s.queries[q] = lq
	s.queryOrder = append(s.queryOrder, q)
	return lq, nil
}

// dropQuery evicts one linked query. Its blocks are retired, so a running
// query finishes on them; $query/N is uninstalled only if it is this
// entry's.
func (s *Session) dropQuery(q string) {
	for _, p := range s.queries[q].procs {
		if s.m.Proc(p.Fn) == p {
			s.m.RemoveProc(p.Fn)
		} else {
			s.m.RemoveBlock(p.Block)
		}
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
	for pi, rp := range s.resident {
		if v == s.synced || s.catchUp(pi, rp, s.kb.storedVersion(pi)) != nil {
			s.settle(pi, rp, v, true)
		}
	}
	s.synced = v
}

// settle evicts a materialised fixpoint a rule procedure of which changed
// (v is the KB invalidation version), and parks one only whose leaves did
// (with rels, catalog cardinalities checked too) as the base its next call
// maintains, the trap stub put back. Running cursors keep their tuples.
func (s *Session) settle(pi term.Indicator, rp *residentProc, v uint64, rels bool) {
	so := rp.setops
	if so == nil || so.stale {
		return
	}
	stale := false
	if rels && len(so.relDeps) > 0 {
		// Relation inserts do not bump the KB invalidation version, so the
		// cardinalities are compared every time, under the KB read lock.
		unlock := s.rlock()
		for name, n := range so.relDeps {
			r := s.kb.cat.Get(name)
			stale = stale || r == nil || r.Count() != n
		}
		unlock()
	}
	if so.builtAt != v {
		for dep, ver := range so.deps {
			if s.kb.storedVersion(dep) == ver {
				continue
			}
			if _, leaf := so.prog.Leaves[dep]; !leaf {
				s.evict(pi, rp, nil)
				return
			}
			stale = true
		}
		so.builtAt = v
	}
	if so.stale = stale; stale && s.m.Proc(so.proc.Fn) == so.proc {
		s.m.DefineProc(&wam.Proc{Fn: so.proc.Fn, Arity: pi.Arity, External: true})
	}
}

// invalidateStored records that this session wrote a clause with head keys
// keys to a stored procedure (nil: a change to every variant). The shared
// record drops the variants the keys admit, other sessions drop theirs at
// their next query, and this session's own copy catches up now; the
// fixpoints computed from it are settled (a stored-clause write leaves the
// catalog relations alone). An open transaction notes the procedure for its
// rollback. Caller holds the KB write lock.
func (s *Session) invalidateStored(pi term.Indicator, keys []edb.ArgKey) {
	s.kb.invalidateProc(pi, keys)
	if s.txn != nil {
		s.txn.touched[pi] = true
	}
	v := s.kb.version.Load()
	for p, rp := range s.resident {
		if p == pi {
			s.catchUp(p, rp, s.kb.storedVersion(p))
		} else {
			s.settle(p, rp, v, false)
		}
	}
}

// InvalidateLoaded drops cached (and installed) code for one external
// procedure — in this session and in the shared knowledge-base table —
// restoring the trap stub so the next call reloads from the EDB. Other
// sessions reload at their next query. The engine calls it automatically
// when stored clauses change.
func (s *Session) InvalidateLoaded(name string, arity int) {
	unlock := s.wlock()
	defer unlock()
	s.invalidateStored(term.Indicator{Name: name, Arity: arity}, nil)
}
