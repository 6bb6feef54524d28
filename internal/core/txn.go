package core

import (
	"errors"

	"repro/internal/edb"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/term"
	"repro/internal/wam"
)

// Logical transactions. A transaction makes a group of knowledge-base
// writes (assert/retract/consult on stored procedures, relation
// inserts) atomic: Commit publishes them durably in one WAL commit,
// Rollback (or any failure) restores the KB exactly — pages, indexes,
// code caches — to the pre-transaction state.
//
// Concurrency model: the transaction owner holds the KB write lock for
// the whole transaction, so transactions serialize against every other
// session; readers elsewhere block until commit/rollback and therefore
// never observe a partial transaction. The owner's own storage accesses
// skip the lock (see rlock/wlock). This is the coarsest correct scheme
// and matches the latch hierarchy: kb.mu above pool frame latches.
//
// Scope: transactions cover the shared durable state — the EDB and the
// relational catalog. Session-local state (dynamic predicates, consulted
// in-memory code, the internal dictionary, which is content-hashed and
// append-only) is not covered.
//
// Failure model: if Commit fails against the disk (ENOSPC, EIO), the
// store rolls the pages back, truncates the WAL to the pre-transaction
// offset, and degrades to read-only; the logical layers are restored
// here and the error surfaces to Prolog as a catchable
// error(transaction_error(commit_failed), educe) ball. Reads keep
// working; writes return store.ErrReadOnly until the KB is reopened.

// sessionTxn is the owner-side snapshot set of an open transaction.
type sessionTxn struct {
	edbSnap *edb.Snapshot
	catSnap *rel.CatSnapshot
	// touched is every stored procedure invalidated inside the
	// transaction. The owner holds the KB write lock throughout, so it
	// is the only session that can invalidate one.
	touched map[term.Indicator]bool
}

// Begin opens a transaction on the session's knowledge base. It fails
// if this session already has one open (transactions do not nest), if
// the store is read-only, or if the pre-transaction flush fails. The
// KB write lock is held until Commit or Rollback, so all other
// sessions block on their next storage access.
func (s *Session) Begin() error {
	if s.txn != nil {
		return store.ErrTxnOpen
	}
	s.kb.mu.Lock()
	if err := s.kb.st.Begin(); err != nil {
		s.kb.mu.Unlock()
		return err
	}
	s.txn = &sessionTxn{
		edbSnap: s.kb.db.Snapshot(),
		catSnap: s.kb.cat.Snapshot(),
		touched: map[term.Indicator]bool{},
	}
	return nil
}

// Commit makes the open transaction durable and releases the KB write
// lock. On a disk fault the transaction is rolled back at every layer,
// the store degrades to read-only, and the error is returned.
func (s *Session) Commit() error {
	if s.txn == nil {
		return store.ErrNoTxn
	}
	txn := s.txn
	s.txn = nil
	if err := s.kb.st.Commit(); err != nil {
		s.restoreLogical(txn)
		return err
	}
	s.kb.txnCommits.Inc()
	s.kb.mu.Unlock()
	return nil
}

// Rollback undoes the open transaction at every layer and releases the
// KB write lock.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return store.ErrNoTxn
	}
	txn := s.txn
	s.txn = nil
	err := s.kb.st.Rollback()
	s.restoreLogical(txn)
	return err
}

// InTxn reports whether this session has a transaction open.
func (s *Session) InTxn() bool { return s.txn != nil }

// restoreLogical rolls the in-memory layers back over the restored pages
// and releases the KB write lock. Every procedure the transaction touched
// is invalidated once more: shared variants filled and session copies
// linked during the transaction reflect clauses that no longer exist, and
// the second version bump makes every session, the owner included, reload
// from the restored EDB. The owner does so at once: a rollback may fire
// mid-query (auto-rollback on error, rollback/0), and the rest of the
// query runs on the restored state.
func (s *Session) restoreLogical(txn *sessionTxn) {
	s.kb.db.Restore(txn.edbSnap)
	s.kb.cat.Restore(txn.catSnap)
	for pi := range txn.touched {
		s.kb.invalidateProc(pi, nil)
	}
	s.kb.txnRollbacks.Inc()
	s.kb.mu.Unlock()
	s.reconcile()
	// The restored EDB reuses the rolled-back clause IDs: drop what they keyed.
	clear(s.parsed)
	clear(s.fetched)
}

// autoRollback aborts the open transaction, if any, after a query died
// with an error (timeout, interrupt, quota, panic, disk fault). The
// engine initiates it, so it counts under txn_auto_rollbacks as well.
func (s *Session) autoRollback() {
	if s.txn == nil {
		return
	}
	s.kb.txnAutoRollbacks.Inc()
	_ = s.Rollback()
}

// txnBall maps a transaction-layer error to its catchable Prolog ball
// error(transaction_error(Reason), educe).
func txnBall(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, store.ErrTxnOpen):
		return wam.TransactionBall("nested_transaction")
	case errors.Is(err, store.ErrNoTxn):
		return wam.TransactionBall("no_transaction")
	case errors.Is(err, store.ErrReadOnly):
		return wam.TransactionBall("read_only")
	default:
		return wam.TransactionBall("commit_failed")
	}
}
