package edb

import "repro/internal/store"

// Transaction support. The pager-level transaction (store.Begin /
// store.Rollback) restores every page byte-for-byte, but the EDB layer
// caches derived state in memory: the procedures map, each ProcInfo's
// descriptor fields and lazily-opened access structures, the shared
// heap handles' append hints, and the external dictionary's entry map.
// Snapshot captures that state cheaply (value copies, no page I/O) and
// Restore puts it back in place after the pager rolled back, so a
// rolled-back transaction is invisible at every layer.
//
// Restore rewrites the fields of the *existing* ProcInfo values rather
// than replacing them: the engine's trap resolvers capture *ProcInfo
// pointers in closures, so pointer identity must survive rollback.

// procSnap is the value copy of one procedure descriptor's mutable
// fields.
type procSnap struct {
	form         Form
	factsOnly    bool
	k            int
	clauseCount  int
	nextClauseID uint32
	gridHeader   store.PageID
	varRoot      store.PageID
	attrAnchors  []store.PageID
	rid          store.RID
}

// Snapshot is the EDB state captured at transaction begin.
type Snapshot struct {
	procs    map[procKey]*ProcInfo
	vals     map[*ProcInfo]procSnap
	nextProc uint32
	stored   int64
}

// Snapshot captures the in-memory EDB state for a transaction. The
// caller must hold the knowledge base's write lock (transactions are
// KB-exclusive), and must also start the external dictionary's journal
// via Ext().BeginJournal.
func (db *DB) Snapshot() *Snapshot {
	s := &Snapshot{
		procs:    make(map[procKey]*ProcInfo, len(db.procs)),
		vals:     make(map[*ProcInfo]procSnap, len(db.procs)),
		nextProc: db.nextProc,
		stored:   db.stored.Value(),
	}
	for k, p := range db.procs {
		s.procs[k] = p
		s.vals[p] = procSnap{
			form:         p.Form,
			factsOnly:    p.FactsOnly,
			k:            p.K,
			clauseCount:  p.ClauseCount,
			nextClauseID: p.nextClauseID,
			gridHeader:   p.gridHeader,
			varRoot:      p.varRoot,
			attrAnchors:  append([]store.PageID(nil), p.attrAnchors...),
			rid:          p.rid,
		}
	}
	return s
}

// Restore rolls the in-memory EDB state back to the snapshot. Call it
// after store.Rollback has restored the pages; it discards every cached
// handle so subsequent access reopens against the restored pages.
func (db *DB) Restore(s *Snapshot) {
	procs := make(map[procKey]*ProcInfo, len(s.procs))
	for k, p := range s.procs {
		v := s.vals[p]
		p.Form = v.form
		p.FactsOnly = v.factsOnly
		p.K = v.k
		p.ClauseCount = v.clauseCount
		p.nextClauseID = v.nextClauseID
		p.gridHeader = v.gridHeader
		p.varRoot = v.varRoot
		p.attrAnchors = append([]store.PageID(nil), v.attrAnchors...)
		p.rid = v.rid
		p.openMu.Lock()
		p.grid = nil
		p.varHeap = nil
		p.attrIdx = nil
		p.openMu.Unlock()
		procs[k] = p
	}
	db.procs = procs
	db.nextProc = s.nextProc
	db.stored.Set(s.stored)
	// Reopen the shared heaps: their roots are immutable but the handles
	// cache an append hint that may point at pages the rollback freed.
	db.clauses = store.OpenHeap(db.st.Pool(), db.clauses.Root())
	db.procHeap = store.OpenHeap(db.st.Pool(), db.procHeap.Root())
}

// BeginJournal starts recording newly interned entries so an aborted
// transaction can remove them again. Interning is idempotent and
// content-hashed, so replaying an entry after rollback recreates the
// same value — but the persistent heap record is gone, and the map must
// agree with the heap for edb.Check.
func (d *ExtDict) BeginJournal() {
	d.mu.Lock()
	d.journal = []extKey{}
	d.mu.Unlock()
}

// EndJournal stops recording (commit path: the entries stay).
func (d *ExtDict) EndJournal() {
	d.mu.Lock()
	d.journal = nil
	d.mu.Unlock()
}

// RollbackJournal removes every entry interned since BeginJournal and
// reopens the heap handle over the rolled-back pages.
func (d *ExtDict) RollbackJournal() {
	d.mu.Lock()
	for _, k := range d.journal {
		if _, ok := d.entries[k]; ok {
			delete(d.entries, k)
			d.count--
		}
	}
	d.journal = nil
	d.heap = store.OpenHeap(d.heap.Pool(), d.heap.Root())
	d.mu.Unlock()
}
