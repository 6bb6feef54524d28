package edb

import "repro/internal/store"

// Transaction support. The pager-level transaction (store.Begin /
// store.Rollback) restores every page byte-for-byte, but the EDB layer
// caches derived state in memory: the procedures map, each ProcInfo's
// descriptor fields and the shared heap handles' append hints.
// Snapshot captures that state cheaply (value copies, no page I/O) and
// Restore puts it back in place after the pager rolled back, so a
// rolled-back transaction is invisible at every layer.
//
// Restore rewrites the fields of the *existing* ProcInfo values rather
// than replacing them, so a pointer taken before the transaction stays
// valid. Nothing outside the EDB holds one across a rollback: a session
// looks a procedure up at each call and keeps it for that call only, and
// its per-query parse cache, keyed by (*ProcInfo, clause ID), is cleared
// by the rollback, since the restored clause-ID counter hands the
// rolled-back IDs out again.

// Snapshot is the EDB state captured at transaction begin.
type Snapshot struct {
	procs    map[procKey]*ProcInfo
	vals     map[*ProcInfo]ProcInfo // descriptor values at begin
	nextProc uint32
	stored   int64
}

// Snapshot captures the in-memory EDB state for a transaction. The
// caller must hold the knowledge base's write lock (transactions are
// KB-exclusive).
func (db *DB) Snapshot() *Snapshot {
	s := &Snapshot{
		procs:    make(map[procKey]*ProcInfo, len(db.procs)),
		vals:     make(map[*ProcInfo]ProcInfo, len(db.procs)),
		nextProc: db.nextProc,
		stored:   db.stored.Value(),
	}
	for k, p := range db.procs {
		s.procs[k] = p
		s.vals[p] = *p
	}
	return s
}

// Restore rolls the in-memory EDB state back to the snapshot. Call it
// after store.Rollback has restored the pages. The clause index handle
// caches nothing (its root is read from its anchor page), so only the
// heap handles are reopened.
func (db *DB) Restore(s *Snapshot) {
	procs := make(map[procKey]*ProcInfo, len(s.procs))
	for k, p := range s.procs {
		*p = s.vals[p]
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
