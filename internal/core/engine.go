// Package core implements the Educe* engine: the integration of the WAM
// emulator, the incremental compiler, the dynamic loader and the external
// database described throughout the paper. The public API is re-exported
// by the root educe package.
//
// The engine is split into two layers, with one way in (OpenKB, then
// KnowledgeBase.NewSession):
//
//   - KnowledgeBase: the shared, concurrency-safe read path — page store
//     and buffer pool, EDB catalog, relational catalog, and the shared
//     loaded-code cache. One KnowledgeBase serves many concurrent
//     sessions.
//   - Session: per-query state — the WAM machine with its internal
//     dictionary, the incremental compiler, dynamic predicates and
//     transient loaded procedures. A Session is single-goroutine. It
//     starts from the KnowledgeBase's Options and changes its own
//     settings only through its Set* methods.
//
// The engine runs in one of two rule-storage modes:
//
//   - RuleStorageCompiled (Educe*): externally stored procedures hold
//     relocatable compiled code; calls to them trap into the dynamic
//     loader, which pre-unifies in the EDB, links the candidate clauses
//     and executes them on the WAM (paper §3.1, §4).
//   - RuleStorageSource (the Educe baseline): externally stored
//     procedures hold source text; queries run on a resolution
//     interpreter that fetches and parses the text on demand, once per
//     query — the configuration whose costs §2 of the paper analyses.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/edb"
	"repro/internal/interp"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/term"
	"repro/internal/wam"
)

// RuleStorage selects how externally stored rules are represented.
type RuleStorage int

// Rule storage modes.
const (
	// RuleStorageCompiled stores relocatable WAM code in the EDB
	// (Educe*, the paper's contribution).
	RuleStorageCompiled RuleStorage = iota
	// RuleStorageSource stores clause text and interprets it (the
	// original Educe, the baseline).
	RuleStorageSource
)

// Stats aggregates engine counters for the benchmark harness. Machine,
// Cost, Dict and SessionIO are per-session; EDB and IO are shared
// knowledge-base counters.
type Stats struct {
	Machine wam.Stats
	EDB     edb.Stats
	IO      store.IOStats
	// SessionIO is the page traffic attributed to this session's own
	// storage accesses (exact when sessions do not overlap in time;
	// see store.Tally).
	SessionIO store.IOStats
	// Cost is the session's accumulated cost-model view: the phase
	// times (parse, compile, edb_fetch, preunify, link, exec, gc, store)
	// plus the per-session retrieval/selectivity/cache counters
	// (exact per-session attribution, unlike the shared EDB totals).
	Cost obs.QueryStats
	Dict dict.Stats
}

// Options configures a KnowledgeBase: its store, and the defaults every
// session it creates starts from (the last four fields). A session
// changes its own copy only through its setters.
type Options struct {
	// StorePath is the page file backing the EDB; empty means an
	// in-memory store, which refuses WALArchiveDir.
	StorePath string
	// PoolPages is the buffer pool size (0 = store.DefaultPoolPages).
	PoolPages int
	// CheckpointBytes is the WAL size past which the store checkpoints
	// and truncates (archives) the log (0 = store default).
	CheckpointBytes int64
	// WALArchiveDir, when non-empty, enables WAL segment archiving: the
	// committed log is preserved in numbered segments there instead of
	// being discarded at checkpoint, enabling point-in-time restore.
	WALArchiveDir string
	// WALArchiveBudget bounds the archive's total bytes; oldest segments
	// are pruned first (0 = unlimited).
	WALArchiveBudget int64
	// DisableIndexing turns first-argument indexing off (ablation A4).
	DisableIndexing bool
	// DisablePreUnification makes EDB retrieval fetch all clauses
	// (ablation A1).
	DisablePreUnification bool
	// RuleStorage selects the mode (default RuleStorageCompiled).
	RuleStorage RuleStorage
	// Strategy selects tuple-at-a-time vs set-at-a-time evaluation of
	// externally stored rule predicates (default StrategyAuto: semi-naive
	// set-at-a-time for eligible recursive predicates, WAM otherwise).
	Strategy Strategy
}

// Session is one Educe* session over a shared KnowledgeBase: the WAM
// machine with its internal dictionary, the incremental compiler, the
// baseline interpreter, the session's own code and the per-query transient
// state. A Session must be used from a single goroutine at a time;
// concurrency is obtained by running many sessions over one
// KnowledgeBase.
type Session struct {
	kb   *KnowledgeBase
	opts Options

	m    *wam.Machine
	comp *compiler.Compiler
	ops  *parser.OpTable

	in *interp.Interp // baseline interpreter (source mode), over own

	// own is the session's own code by functor, in both modes: the clauses
	// of every predicate it consulted, asserted or declared dynamic, each
	// its term and its code (see link). A change uninstalls the
	// predicate's code, and its next call traps and links the list. A list
	// is only replaced or appended to (link fills in missing code), so an
	// earlier slice of it still reads the clauses it held.
	own map[dict.ID][]interp.Clause

	// typed holds declared type signatures (the typed sub-language).
	typed map[term.Indicator][]ArgType

	// per-query transient state: the stored rule procedures the baseline
	// interpreter fetched, parsed, and the stored clause texts parsed.
	fetched map[term.Indicator][]interp.Clause
	parsed  map[storedClause]term.Term

	// resident is the code this session has linked from the EDB, by the
	// stored procedure's functor, nresident the variants and materialised
	// results it holds and nsetops the materialised results alone (see
	// resident.go). synced is the KB invalidation version the table was
	// last reconciled against.
	resident  map[dict.ID]*residentProc
	nresident int
	nsetops   int
	synced    uint64

	queries    map[string]*linkedQuery // compiled-mode goals by text
	queryOrder []string                // their texts, oldest first
	callArgs   []wam.Cell              // a direct call's arguments
	gen        *interpGen              // the source-mode query's worker

	// txn is the open transaction's snapshot set (nil: none). While set,
	// this session owns the KB write lock (see txn.go).
	txn *sessionTxn

	// The per-query resource envelope (see envelope.go). budget is the
	// wall-clock allowance in nanoseconds every query starts with (0:
	// none; SetTimeout). qctx is the context the running query was
	// started under (QueryCtx) and unbindCtx what detaches its
	// cancellation from the session. quota caps each query's consumption
	// (SetQuota): check enforces the pages limit for every evaluator, the
	// machine the heap, trail and solution limits.
	budget    atomic.Int64
	qctx      context.Context
	unbindCtx func()
	quota     Quota

	// tally attributes buffer-pool traffic to this session while it is
	// inside a storage access.
	tally *store.Tally

	// Observability: q accumulates the current query's phase spans and
	// cost counters (the WAM's phase sink points at q.Phases for GC
	// attribution); cum holds the roll-up of all finished queries and of
	// consult work done between queries. Stats() reports cum+q. The
	// tracer, when set, receives one event group per completed query.
	id     uint64 // session ID, unique within the KB
	q      obs.QueryStats
	cum    obs.QueryStats
	tracer *obs.Tracer

	// Profiling: when enabled the machine carries a wam.Profiler whose
	// per-query counters are drained at query end into qProf (this
	// query's name-keyed profile, feeding the slow-query record), then
	// merged into profile (the session cumulative) and the KB table.
	// slowThresh > 0 arms the slow-query diagnostic log.
	profile    map[string]*obs.PredCounters
	qProf      map[string]*obs.PredCounters
	slowThresh time.Duration

	// current-query trace metadata; qOpen until the query ends.
	qOpen     bool
	qid       uint64
	qGoal     string
	qStart    time.Time
	qSolCount int
}

// dictSegment is the size of a session's internal dictionary segments.
const dictSegment = 4096

// NewSession creates a session over the shared knowledge base, starting
// from the KB's Options.
func (kb *KnowledgeBase) NewSession() (*Session, error) {
	m := wam.NewMachine(dict.New(dict.WithSegmentSize(dictSegment)))
	s := &Session{
		kb:       kb,
		opts:     kb.opts,
		m:        m,
		comp:     compiler.New(compiler.Options{}),
		ops:      parser.NewOpTable(),
		in:       interp.New(),
		own:      map[dict.ID][]interp.Clause{},
		resident: map[dict.ID]*residentProc{},
		fetched:  map[term.Indicator][]interp.Clause{},
		parsed:   map[storedClause]term.Term{},
		queries:  map[string]*linkedQuery{},
		tally:    &store.Tally{},
		synced:   kb.version.Load(),
		id:       kb.nextSessionID(),
	}
	// The machine charges GC pauses to the current query's phase vector;
	// &s.q.Phases is stable for the session's lifetime.
	m.SetPhaseSink(&s.q.Phases)
	m.SetCheckHook(s.check)
	s.in.Check = s.check
	s.in.Store = ownStore{s}
	m.OnUndefined = s.onUndefined
	s.registerEngineBuiltins()
	s.in.OnUndefined = s.interpTrap
	return s, nil
}

// Close releases the session's transient state, rolling back any
// transaction left open. The shared knowledge base stays open (close it
// separately).
func (s *Session) Close() error {
	s.autoRollback()
	s.endQuery()
	s.evictAll()
	s.dropQueries()
	return nil
}

// KB returns the session's knowledge base.
func (s *Session) KB() *KnowledgeBase { return s.kb }

// Machine exposes the WAM (benchmarks and tests).
func (s *Session) Machine() *wam.Machine { return s.m }

// RuleStorage reports the current mode.
func (s *Session) RuleStorage() RuleStorage { return s.opts.RuleStorage }

// SetRuleStorage switches this session between Educe* and baseline
// evaluation (the KB's Options.RuleStorage is only the default). The switch
// is rejected with store.ErrTxnOpen while a transaction is open: the two
// modes resolve clauses through different caches, so changing modes
// mid-transaction would let one goal see pre-snapshot code the rollback
// path cannot restore. On success the code loaded from the knowledge base
// is dropped, so the next query resolves stored procedures afresh in the
// new mode; the session's own code, one list both modes read, survives.
func (s *Session) SetRuleStorage(rs RuleStorage) error {
	if rs == s.opts.RuleStorage {
		return nil
	}
	if s.txn != nil {
		return store.ErrTxnOpen
	}
	s.endQuery()
	s.evictAll()
	s.opts.RuleStorage = rs
	return nil
}

// Stats returns aggregated counters.
func (s *Session) Stats() Stats {
	return Stats{
		Machine:   s.m.Stats(),
		EDB:       s.kb.db.Stats(),
		IO:        s.kb.st.Stats(),
		SessionIO: s.tally.Stats(),
		Cost:      s.Cost(),
		Dict:      s.m.Dict.Stats(),
	}
}

// Cost returns the session's accumulated cost-model counters: finished
// queries plus the one in flight, its exec charged up to now.
func (s *Session) Cost() obs.QueryStats {
	if s.qOpen {
		s.chargeExec()
	}
	total := s.cum
	total.AddQuery(&s.q)
	return total
}

// ID returns the session's KB-unique identifier (stamped on trace events).
func (s *Session) ID() uint64 { return s.id }

// SetTracer directs the session's per-query trace events to t (nil
// disables tracing). One tracer may be shared by many sessions; its output
// is serialised internally.
func (s *Session) SetTracer(t *obs.Tracer) { s.tracer = t }

// EnableProfiling turns the per-predicate 4-port profiler on or off for
// this session. While enabled, the WAM records call/exit/redo/fail
// counts and self-time per predicate; at each query end the per-query
// profile is merged into the session's cumulative profile (see Profile)
// and the knowledge base's shared table (KnowledgeBase.Profile). The
// disabled path costs one nil check per port site in the dispatch loop.
// Like SetQuota, call it between queries from the session's goroutine.
func (s *Session) EnableProfiling(on bool) {
	if on {
		if s.m.Profiler() == nil {
			s.m.SetProfiler(wam.NewProfiler())
		}
		if s.profile == nil {
			s.profile = map[string]*obs.PredCounters{}
		}
		return
	}
	s.drainProfile()
	s.m.SetProfiler(nil)
}

// ProfilingEnabled reports whether the per-predicate profiler is on.
func (s *Session) ProfilingEnabled() bool { return s.m.Profiler() != nil }

// SetSlowThreshold arms the slow-query diagnostic log: any query whose
// wall time reaches d emits one slow_query trace record (through the
// session's tracer) with its phase breakdown, hottest predicates and
// access-path selectivity. d <= 0 disarms it. A threshold without a
// tracer logs nothing; profiling enriches the record with per-predicate
// rows but is not required.
func (s *Session) SetSlowThreshold(d time.Duration) { s.slowThresh = d }

// SlowThreshold returns the armed slow-query threshold (0 = disarmed).
func (s *Session) SlowThreshold() time.Duration { return s.slowThresh }

// Profile returns a snapshot of this session's cumulative per-predicate
// profile (finished queries; the in-flight query's counters are drained
// at its end), sorted by predicate indicator.
func (s *Session) Profile() []obs.PredProfile {
	s.drainProfile()
	out := make([]obs.PredProfile, 0, len(s.profile))
	for pred, c := range s.profile {
		out = append(out, obs.PredProfile{Pred: pred, PredCounters: *c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

// drainProfile empties the machine profiler into the per-query profile
// (for the slow-query record) and folds it into the session cumulative
// and the KB-wide table. Draining is idempotent: a second drain at the
// same point moves nothing.
func (s *Session) drainProfile() {
	raw := s.m.Profiler().Drain()
	if len(raw) == 0 {
		return
	}
	if s.qProf == nil {
		s.qProf = map[string]*obs.PredCounters{}
	}
	if s.profile == nil {
		s.profile = map[string]*obs.PredCounters{}
	}
	fresh := make(map[string]*obs.PredCounters, len(raw))
	for fn, c := range raw {
		addCounters(fresh, fmt.Sprintf("%s/%d", s.m.Dict.Name(fn), s.m.Dict.Arity(fn)), c)
	}
	for pred, c := range fresh {
		addCounters(s.qProf, pred, c)
		addCounters(s.profile, pred, c)
	}
	s.kb.profile.MergeAll(fresh)
}

// addCounters adds c to pred's counters in m, or files a copy of c.
func addCounters(m map[string]*obs.PredCounters, pred string, c *obs.PredCounters) {
	if mc, ok := m[pred]; ok {
		mc.Add(c)
	} else {
		cp := *c
		m[pred] = &cp
	}
}

// ResetStats zeroes this session's own counters: the WAM machine, the
// interpreter, the session I/O tally and the accumulated phase/cost
// stats. It deliberately does NOT touch the shared knowledge-base
// counters (EDB retrievals, pool I/O, code-cache traffic): under
// concurrent sessions those belong to everyone, and resetting them here
// would corrupt the other sessions' view. Use KnowledgeBase.ResetStats
// for the shared counters.
func (s *Session) ResetStats() {
	s.m.ResetStats()
	s.in.ResetStats()
	s.tally.Reset()
	s.cum.Reset()
	s.q.Reset()
	// Drop the session profile without losing the KB attribution: drain
	// first so in-flight counters still reach the shared table.
	s.drainProfile()
	if s.profile != nil {
		s.profile = map[string]*obs.PredCounters{}
	}
	s.qProf = nil
}

// --- shared-state access helpers --------------------------------------------

// rlock and wlock take the KB read or write lock and attach the session's
// I/O tally for one storage access (a retrieval, a cursor step, a write),
// never across WAM execution, and report whether they took the lock: a
// session with an open transaction already owns it exclusively. runlock
// and wunlock give back what they took: defer s.runlock(s.rlock()).
func (s *Session) rlock() (took bool) {
	if took = s.txn == nil; took {
		s.kb.mu.RLock()
	}
	s.kb.st.Pool().Attach(s.tally)
	return took
}

func (s *Session) runlock(took bool) {
	s.kb.st.Pool().Detach(s.tally)
	if took {
		s.kb.mu.RUnlock()
	}
}

func (s *Session) wlock() (took bool) {
	if took = s.txn == nil; took {
		s.kb.mu.Lock()
	}
	s.kb.st.Pool().Attach(s.tally)
	return took
}

func (s *Session) wunlock(took bool) {
	s.kb.st.Pool().Detach(s.tally)
	if took {
		s.kb.mu.Unlock()
	}
}

// --- consulting -------------------------------------------------------------

// Consult compiles src into the session's own code, private to it (rules
// in main memory, like a conventional Prolog compiler).
func (s *Session) Consult(src string) error {
	terms, err := s.parseProgram(src)
	if err != nil {
		return err
	}
	return s.ConsultTerms(terms)
}

// ConsultExternal compiles src and stores every clause in the EDB in the
// session's current rule-storage form; a procedure already stored keeps
// its own (see ConsultExternalTerms). The predicates become external:
// calling them traps into the dynamic loader. Takes the KB write lock.
func (s *Session) ConsultExternal(src string) error {
	terms, err := s.parseProgram(src)
	if err != nil {
		return err
	}
	return s.ConsultExternalTerms(terms)
}

// parseProgram reads all clauses, executing directives.
func (s *Session) parseProgram(src string) ([]term.Term, error) {
	t0 := time.Now()
	defer func() { s.q.Phases.Add(obs.PhaseParse, time.Since(t0)) }()
	p := parser.NewWithOps(src, s.ops)
	var out []term.Term
	for {
		tm, _, err := p.ReadTerm()
		if err != nil {
			return nil, err
		}
		if tm == nil {
			return out, nil
		}
		if d, ok := tm.(*term.Compound); ok && d.Functor == ":-" && len(d.Args) == 1 {
			if err := s.directive(d.Args[0]); err != nil {
				return nil, err
			}
			continue
		}
		out = append(out, tm)
	}
}

func (s *Session) directive(d term.Term) error {
	c, ok := d.(*term.Compound)
	if !ok {
		return fmt.Errorf("core: unsupported directive %s", d)
	}
	switch {
	case c.Functor == "op" && len(c.Args) == 3:
		p, ok1 := c.Args[0].(term.Int)
		ts, ok2 := c.Args[1].(term.Atom)
		name, ok3 := c.Args[2].(term.Atom)
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("core: malformed op/3 directive")
		}
		typ, err := parser.ParseOpType(string(ts))
		if err != nil {
			return err
		}
		// A linked query's text may read differently under the new table.
		s.dropQueries()
		return s.ops.Define(int(p), typ, string(name))
	case c.Functor == "dynamic" && len(c.Args) == 1:
		pi, err := interp.ParseIndicator(c.Args[0])
		if err != nil {
			return err
		}
		if fn := s.m.Dict.Intern(pi.Name, pi.Arity); s.own[fn] == nil { // declared, with no clauses yet
			s.setOwn(fn, nil)
		}
		return nil
	case c.Functor == "typed" && len(c.Args) == 1:
		return s.typedDirective(c.Args[0])
	}
	return fmt.Errorf("core: unsupported directive %s", d)
}

// program reads clauses grouped by predicate, preserving first-definition
// order, and compiles them when compile is set.
func (s *Session) program(terms []term.Term, compile bool) (map[term.Indicator][]interp.Clause, []term.Indicator, error) {
	units := map[term.Indicator][]interp.Clause{}
	var order []term.Indicator
	for _, tm := range terms {
		pi, c, err := s.newClause(tm, compile)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := units[pi]; !ok {
			order = append(order, pi)
		}
		units[pi] = append(units[pi], c)
	}
	return units, order, nil
}

// storeClause stores one clause in the EDB as one record: in its stored
// procedure's form, or a new procedure's in the session's rule-storage
// form. The blob is the clause's relocatable code or its text. Storing a
// rule in a facts-only procedure makes every later call load it whole.
// Caller holds the KB write lock.
func (s *Session) storeClause(tm term.Term) error {
	head, body := interp.SplitClause(tm)
	if err := s.checkTyped(head); err != nil {
		return err
	}
	pi := head.Indicator()
	db := s.kb.db
	form := edb.FormCode
	if p := db.Proc(pi.Name, pi.Arity); p != nil {
		form = p.Form
	} else if s.opts.RuleStorage == RuleStorageSource {
		form = edb.FormSource
	}
	var code *compiler.ClauseCode
	if form == edb.FormCode {
		_, c, err := s.newClause(tm, true)
		if err != nil {
			return err
		}
		code = c.Code
	}
	t0 := time.Now()
	var blob []byte
	if code != nil {
		blob = loader.EncodeClause(*code)
	} else {
		blob = []byte(tm.String() + ".")
	}
	defer func() { s.q.Phases.Add(obs.PhaseStore, time.Since(t0)) }()
	p, err := db.EnsureProc(pi.Name, pi.Arity, form)
	if err != nil {
		return err
	}
	firstRule := body != term.TrueAtom && p.FactsOnly
	if body != term.TrueAtom {
		if err := db.MarkRule(p); err != nil {
			return err
		}
	}
	keys := argKeysOf(headArgsOf(head))
	for len(keys) < p.K {
		keys = append(keys, edb.WildKey())
	}
	if _, err := db.StoreClause(p, keys, blob); err != nil {
		return err
	}
	if firstRule {
		keys = nil
	}
	s.invalidateStored(pi, keys)
	return nil
}

func headArgsOf(head term.Term) []term.Term {
	if c, ok := head.(*term.Compound); ok {
		return c.Args
	}
	return nil
}

// argKeysOf derives EDB attribute keys from clause head arguments.
func argKeysOf(args []term.Term) []edb.ArgKey {
	keys := make([]edb.ArgKey, 0, len(args))
	for _, a := range args {
		keys = append(keys, argKeyOf(a))
	}
	return keys
}

func argKeyOf(a term.Term) edb.ArgKey {
	switch x := a.(type) {
	case term.Atom:
		return edb.AtomKey(string(x))
	case term.Int:
		return edb.IntKey(int64(x))
	case term.Float:
		return edb.FloatKey(math.Float64bits(float64(x)))
	case *term.Compound:
		if _, ok := term.IsCons(x); ok {
			return edb.ListKey()
		}
		return edb.StructKey(x.Functor, len(x.Args))
	default:
		return edb.WildKey()
	}
}

// ConsultTerms adds pre-parsed clause terms to the session's own code
// (bulk loading path for workload generators), in place of the old
// clauses of every predicate they define. Compiled mode compiles them now;
// source mode compiles nothing, its interpreter reads the terms.
func (s *Session) ConsultTerms(terms []term.Term) error {
	units, order, err := s.program(terms, s.opts.RuleStorage != RuleStorageSource)
	if err != nil {
		return err
	}
	for _, pi := range order {
		s.setOwn(s.m.Dict.Intern(pi.Name, pi.Arity), units[pi])
	}
	return nil
}

// ConsultExternalTerms stores pre-parsed clause terms in the EDB, under
// the KB write lock, as one EDB batch: the clause records are written in
// turn and their index entries filed in key order at the end, also when
// a clause fails. A clause of a stored procedure takes that procedure's
// form; one of a new procedure, the session's rule-storage form.
func (s *Session) ConsultExternalTerms(terms []term.Term) (err error) {
	if s.kb.st.ReadOnly() {
		return store.ErrReadOnly
	}
	defer s.wunlock(s.wlock())
	db := s.kb.db
	db.BeginBatch()
	defer func() {
		t0 := time.Now()
		if ferr := db.EndBatch(); err == nil {
			err = ferr
		}
		s.q.Phases.Add(obs.PhaseStore, time.Since(t0))
	}()
	for _, tm := range terms {
		if err := s.storeClause(tm); err != nil {
			return err
		}
	}
	return nil
}

// AssertExternalTerm stores a single clause in the EDB, in the form
// storeClause picks (the paper's assertion of externally
// maintained code, one of the triggers of §3.3.2's garbage collection).
func (s *Session) AssertExternalTerm(t term.Term) error {
	return s.ConsultExternalTerms([]term.Term{t})
}

// RetractExternal removes the first stored clause matching t (a fact, or
// Head :- Body) from the EDB and reports whether one was removed. Takes
// the KB write lock.
//
// Compiled-form matching compares relocatable code bytes: a clause compiles
// to the same one code unit every time, control constructs included, so
// this finds the clause as stored up to variable renaming. Source-form
// matching unifies terms.
func (s *Session) RetractExternal(t term.Term) (bool, error) {
	if s.kb.st.ReadOnly() {
		return false, store.ErrReadOnly
	}
	defer s.wunlock(s.wlock())
	db := s.kb.db
	head, body := interp.SplitClause(t)
	pi := head.Indicator()
	p := db.Proc(pi.Name, pi.Arity)
	if p == nil {
		return false, nil
	}
	keys := argKeysOf(headArgsOf(head))
	for len(keys) < p.K {
		keys = append(keys, edb.WildKey())
	}
	scs, err := db.RetrieveObs(p, keys, &s.q)
	if err != nil {
		return false, err
	}
	var want []byte
	if p.Form == edb.FormCode {
		_, c, err := s.newClause(t, true)
		if err != nil {
			return false, err
		}
		want = loader.EncodeClause(*c.Code)
	}
	for _, sc := range scs {
		match := string(sc.Blob) == string(want)
		if p.Form != edb.FormCode {
			stored, _, err := parser.ParseTermWithOps(strings.TrimSuffix(string(sc.Blob), "."), s.ops)
			if err != nil {
				return false, err
			}
			sh, sb := interp.SplitClause(term.Rename(stored))
			env := interp.NewEnv()
			match = env.Unify(head, sh) && env.Unify(body, sb)
		}
		if match {
			if err := db.DeleteClause(p, sc); err != nil {
				return false, err
			}
			s.invalidateStored(pi, sc.Keys())
			return true, nil
		}
	}
	return false, nil
}

// DropExternal removes an entire externally stored procedure, under the
// KB write lock.
func (s *Session) DropExternal(name string, arity int) error {
	if s.kb.st.ReadOnly() {
		return store.ErrReadOnly
	}
	defer s.wunlock(s.wlock())
	db := s.kb.db
	p := db.Proc(name, arity)
	if p == nil {
		return fmt.Errorf("core: no external procedure %s/%d", name, arity)
	}
	if err := db.DropProc(p); err != nil {
		return err
	}
	s.invalidateStored(term.Indicator{Name: name, Arity: arity}, nil)
	return nil
}
