package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/edb"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/term"
)

// KnowledgeBase is the shared, durable half of an Educe* deployment: the
// page store with its buffer pool, the EDB (procedures table, clause
// relations, clause index), the relational catalog, and a cache of loaded
// relocatable code keyed by procedure + pre-unification filter.
//
// One KnowledgeBase serves any number of concurrent Sessions. The paper's
// architecture already separates this state from per-session WAM state
// (§3.1, §3.3): externally stored code holds only associative addresses,
// so the same stored (and the same decoded) clauses can be linked into
// any session's machine. Readers proceed concurrently; writers
// (ConsultExternal, InsertTuples, assert/retract on stored procedures)
// take the KB write lock and invalidate affected cache entries.
type KnowledgeBase struct {
	opts Options // defaults for sessions created with NewSession

	// mu orders catalog/dictionary metadata access and multi-page
	// structure mutations (B-tree splits, heap chain growth) against
	// readers. It does NOT serialize page access: since
	// the buffer pool grew per-frame latches, page-byte safety lives in
	// the pool (shared pins for reads, exclusive for writes), and
	// concurrent readers stream pages in parallel under their shared
	// RLock. Sessions hold the read lock only across individual
	// storage-layer accesses (one retrieval, one cursor step), never
	// across query execution, so a session may freely interleave its own
	// reads and writes.
	mu sync.RWMutex

	st  *store.Store
	db  *edb.DB
	cat *rel.Catalog

	// Shared loaded-code table (paper §3.3.2's main-memory code, hoisted
	// out of the session; see resident.go): per stored procedure, its
	// invalidation version and its pre-unified candidate clause sets in
	// relocatable form. Variants are machine-independent; each session
	// links them against its own dictionary. cacheMu guards the table and
	// nvariants (the variants it holds); kb.mu (held at least shared by
	// every reader, exclusively by every writer) orders fills against
	// invalidation.
	cacheMu   sync.Mutex
	shared    map[term.Indicator]*sharedProc
	nvariants int
	version   atomic.Uint64 // bumped on every invalidation

	// Compiled bootstrap library, shared so sessions only pay linking.
	bootMu    sync.Mutex
	bootUnits map[term.Indicator][]compiler.ClauseCode
	bootOrder []term.Indicator

	// Observability: the KB-wide metrics registry (owned by the store,
	// shared by every layer) plus the shared decoded-code cache counters
	// and the session/query identity sequences the tracer stamps events
	// with.
	reg          *obs.Registry
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheInvals  *obs.Counter
	cacheEntries *obs.Gauge
	// panicsRecovered counts runtime panics contained at the query
	// boundary and converted into Prolog system_error balls.
	panicsRecovered *obs.Counter
	// Transaction traffic: commits, rollbacks (explicit plus failed
	// commits), and the subset of rollbacks the engine initiated itself
	// (query error, timeout, interrupt, session close).
	txnCommits       *obs.Counter
	txnRollbacks     *obs.Counter
	txnAutoRollbacks *obs.Counter
	// Set-at-a-time evaluation: fixpoint runs, eligibility fallbacks to
	// the tuple-at-a-time WAM, semi-naive rounds, new tuples derived,
	// and the EDB pages read while materializing programs.
	setopsQueries     *obs.Counter
	setopsFallbacks   *obs.Counter
	setopsIterations  *obs.Counter
	setopsDeltaTuples *obs.Counter
	setopsPages       *obs.Counter
	sessionSeq        atomic.Uint64
	querySeq          atomic.Uint64

	// profile accumulates per-predicate 4-port counters and cost
	// attribution across every profiled session (sessions merge their
	// per-query profiles here at query end).
	profile *obs.ProfileTable
}

// OpenKB opens (or creates) a knowledge base. opts.StorePath and
// opts.PoolPages configure the store; the remaining options become the
// defaults for sessions created with NewSession.
func OpenKB(opts Options) (*KnowledgeBase, error) {
	return OpenKBFS(store.OSFS{}, opts)
}

// OpenKBFS is OpenKB over an explicit filesystem, letting tests run a
// full knowledge base on a deterministic fault-injecting store.
func OpenKBFS(fsys store.FS, opts Options) (*KnowledgeBase, error) {
	st, err := store.Open(fsys, opts.StorePath, store.Options{
		PoolPages:       opts.PoolPages,
		CheckpointBytes: opts.CheckpointBytes,
		ArchiveDir:      opts.WALArchiveDir,
		ArchiveBudget:   opts.WALArchiveBudget,
	})
	if err != nil {
		return nil, err
	}
	db, err := edb.Open(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	cat, err := rel.OpenCatalog(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	reg := st.Obs()
	kb := &KnowledgeBase{
		opts:              opts,
		st:                st,
		db:                db,
		cat:               cat,
		shared:            map[term.Indicator]*sharedProc{},
		reg:               reg,
		cacheHits:         reg.Counter("core.codecache.hits"),
		cacheMisses:       reg.Counter("core.codecache.misses"),
		cacheInvals:       reg.Counter("core.codecache.invalidations"),
		cacheEntries:      reg.Gauge("core.codecache.entries"),
		panicsRecovered:   reg.Counter("core.panics_recovered"),
		txnCommits:        reg.Counter("core.txn.commits"),
		txnRollbacks:      reg.Counter("core.txn.rollbacks"),
		txnAutoRollbacks:  reg.Counter("core.txn.auto_rollbacks"),
		setopsQueries:     reg.Counter("setops.queries"),
		setopsFallbacks:   reg.Counter("setops.fallbacks"),
		setopsIterations:  reg.Counter("setops.iterations"),
		setopsDeltaTuples: reg.Counter("setops.delta_tuples"),
		setopsPages:       reg.Counter("setops.pages_read"),
		profile:           obs.NewProfileTable(),
	}
	reg.RegisterFunc("core.codecache.hit_ratio", func() any {
		h := kb.cacheHits.Value()
		return obs.Ratio(h, h+kb.cacheMisses.Value())
	})
	return kb, nil
}

// Obs returns the KB-wide metrics registry (one per knowledge base; every
// layer's shared counters live in it).
func (kb *KnowledgeBase) Obs() *obs.Registry { return kb.reg }

// ResetStats zeroes the shared knowledge-base traffic counters — the
// buffer-pool I/O, EDB retrieval and decoded-code cache metrics every
// session contributes to — and the KB-wide per-predicate profile. This
// is the explicit KB-level reset: Session.ResetStats deliberately does
// not touch these, because under concurrent sessions one session
// resetting them would corrupt the others' view. Gauges (clauses stored,
// cache entries) are state, not traffic, and keep their values.
func (kb *KnowledgeBase) ResetStats() {
	kb.reg.ResetTraffic()
	kb.profile.Reset()
}

// Profile returns the KB-wide per-predicate profile table, accumulated
// from every profiled session at query end (see Session.EnableProfiling).
func (kb *KnowledgeBase) Profile() *obs.ProfileTable { return kb.profile }

// nextSessionID allocates a session identifier for trace attribution.
func (kb *KnowledgeBase) nextSessionID() uint64 { return kb.sessionSeq.Add(1) }

// nextQueryID allocates a KB-unique query identifier.
func (kb *KnowledgeBase) nextQueryID() uint64 { return kb.querySeq.Add(1) }

// Close flushes and closes the store. Sessions must not be used after
// their knowledge base is closed.
func (kb *KnowledgeBase) Close() error { return kb.st.Close() }

// Flush writes all buffered pages to the store.
func (kb *KnowledgeBase) Flush() error { return kb.st.Flush() }

// Store returns the underlying page store.
func (kb *KnowledgeBase) Store() *store.Store { return kb.st }

// Backup streams an online backup of the knowledge base to w. The read
// lock is taken only at the start and finish edges: each edge sits on a
// commit boundary (a transaction owner holds the write lock for its
// whole transaction, so no open transaction can straddle an edge), and
// the page copy in between runs without the lock, with writers
// proceeding concurrently. The returned info carries the LSN range the
// image plus the WAL archive covers; restore with store.Restore.
func (kb *KnowledgeBase) Backup(w io.Writer) (store.BackupInfo, error) {
	return kb.BackupProgress(w, nil)
}

// BackupProgress is Backup with a per-batch progress callback reporting
// (copied, total) pages. A non-nil error from the callback aborts the
// backup and is returned; the primary is unaffected either way.
func (kb *KnowledgeBase) BackupProgress(w io.Writer, progress func(copied, total uint64) error) (store.BackupInfo, error) {
	kb.mu.RLock()
	bk, err := kb.st.StartBackup(w)
	kb.mu.RUnlock()
	if err != nil {
		return store.BackupInfo{}, err
	}
	for {
		done, err := bk.CopyPages(64)
		if err != nil {
			bk.Abort()
			return store.BackupInfo{}, err
		}
		if progress != nil {
			copied, total := bk.Progress()
			if perr := progress(uint64(copied), uint64(total)); perr != nil {
				bk.Abort()
				return store.BackupInfo{}, perr
			}
		}
		if done {
			break
		}
	}
	kb.mu.RLock()
	info, err := bk.Finish()
	kb.mu.RUnlock()
	if err != nil {
		return store.BackupInfo{}, err
	}
	return info, nil
}

// LSN reports the store's last committed log sequence number, in-memory
// stores included: the point-in-time coordinate backups and restores
// are addressed by.
func (kb *KnowledgeBase) LSN() uint64 { return kb.st.LSN() }

// ClearReadOnly is the operator repair path for a knowledge base that
// degraded to read-only after a failed transaction commit: it verifies
// the medium accepts writes again (repairing the log if the failed
// commit left it diverged) and re-enables writes. It fails — leaving
// the KB read-only — if the disk is still refusing writes.
func (kb *KnowledgeBase) ClearReadOnly() error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.st.ClearReadOnly()
}

// Check verifies the knowledge base's on-disk integrity: every EDB
// structure (procedure descriptors, clause heap, clause index) passes its
// invariant verifier, every index entry resolves to its clause record,
// and every stored clause's code blob is readable. Each page read from
// the pager has its checksum verified as a side effect. Check takes
// the read lock, so it can run against a live KB between queries.
func (kb *KnowledgeBase) Check() error {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.db.Check()
}

// Repair rebuilds the EDB's derived index entries (arguments 1..K-1)
// from the primary ones for every procedure whose Check fails, then
// flushes. It returns the number of procedures rebuilt; corruption in a
// primary structure is unrepairable and reported as an error. Cached
// loaded code for repaired procedures is invalidated.
func (kb *KnowledgeBase) Repair() (int, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	n, err := kb.db.Repair()
	if n > 0 {
		for _, p := range kb.db.Procs() {
			kb.invalidateProc(term.Indicator{Name: p.Name, Arity: p.Arity}, nil)
		}
		if ferr := kb.st.Flush(); err == nil {
			err = ferr
		}
	}
	return n, err
}

// DB returns the external database layer. Mutating it directly bypasses
// the KB write lock; use session methods (or Lock/Unlock) for writes.
func (kb *KnowledgeBase) DB() *edb.DB { return kb.db }

// Catalog returns the relational catalog.
func (kb *KnowledgeBase) Catalog() *rel.Catalog { return kb.cat }

// InsertTuples appends tuples to a stored relation under the KB write
// lock, making the set-oriented write path safe against concurrent
// readers.
func (kb *KnowledgeBase) InsertTuples(name string, ts []rel.Tuple) error {
	if kb.st.ReadOnly() {
		return store.ErrReadOnly
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	r := kb.cat.Get(name)
	if r == nil {
		return fmt.Errorf("core: no relation %s", name)
	}
	return r.InsertAll(ts)
}

// bootstrapUnits compiles the bootstrap library once per KB and hands the
// relocatable units to every session for linking (sessions pay only the
// ~10% loader share of §3.1's compile-cost split).
func (kb *KnowledgeBase) bootstrapUnits(s *Session) (map[term.Indicator][]compiler.ClauseCode, []term.Indicator, error) {
	kb.bootMu.Lock()
	defer kb.bootMu.Unlock()
	if kb.bootUnits == nil {
		terms, err := s.parseProgram(bootstrapSrc)
		if err != nil {
			return nil, nil, err
		}
		units, order, err := s.compileProgram(terms)
		if err != nil {
			return nil, nil, err
		}
		kb.bootUnits, kb.bootOrder = units, order
	}
	return kb.bootUnits, kb.bootOrder, nil
}
