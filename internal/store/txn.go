package store

// Transactions. The pager's normal regime makes every Sync a commit
// point; a transaction suspends that — Sync becomes a no-op, page
// images keep accumulating in the pending map, and nothing touches
// either file until commitTxn logs them with the single commit marker.
// beginTxn commits first, so pending then holds exactly the
// transaction's pages and the tail only committed ones. Rollback
// therefore needs no disk I/O at all: it clears pending and restores
// the header fields, and the files never knew the transaction happened.
// Nothing was logged, so no LSN is reused. A crash mid-transaction
// recovers to the pre-transaction state for the same reason.
//
// The one hard case is a commit that fails halfway: a failed fsync
// happens after the batch has reached the file, so its marker may or
// may not be durable. commitTxn rolls the in-memory state back and
// truncates the log to its pre-transaction length so recovery cannot
// resurrect the aborted transaction; if even the truncate fails, the
// store above flips read-only, which keeps the divergence from
// compounding (see Store.Commit).

import "errors"

// Transaction state errors.
var (
	// ErrTxnOpen reports Begin with a transaction already open
	// (transactions do not nest).
	ErrTxnOpen = errors.New("store: transaction already open")
	// ErrNoTxn reports Commit/Rollback without an open transaction.
	ErrNoTxn = errors.New("store: no transaction open")
)

// pagerTxn is the filePager's undo record: the header fields at
// beginTxn and the log's position, for the commit-failure truncate.
type pagerTxn struct {
	numPages PageID
	freeHead PageID
	meta     map[string]uint64
	hdrDirty bool
	preOff   int64  // wal.off at beginTxn, for post-failure truncation
	preLSN   uint64 // wal.lsn at beginTxn, restored with preOff
}

// divergence records a failed-commit cleanup that could not be made
// durable: the log file may still hold the aborted transaction's
// records (possibly including its commit marker) past off. While it
// stands, the pager neither checkpoints nor archives — the store above
// is read-only — and clearDiverged retries the truncation before
// writes are re-enabled.
type divergence struct {
	off int64
	lsn uint64
}

func (p *filePager) beginTxn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txn != nil {
		return ErrTxnOpen
	}
	// Make the pre-transaction state durable first. After this nothing
	// is pending, so every page stashed while the transaction is open
	// belongs to it, and clearing pending is a complete undo.
	if err := p.commit(); err != nil {
		return err
	}
	meta := make(map[string]uint64, len(p.meta))
	for k, v := range p.meta {
		meta[k] = v
	}
	p.txn = &pagerTxn{
		numPages: p.numPages,
		freeHead: p.freeHead,
		meta:     meta,
		hdrDirty: p.hdrDirty,
		preOff:   p.wal.off,
		preLSN:   p.wal.lsn,
	}
	return nil
}

func (p *filePager) commitTxn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txn == nil {
		return ErrNoTxn
	}
	txn := p.txn
	p.txn = nil // lift the commit guard
	if err := p.commitOnly(); err != nil {
		// The marker may be partially — or, after a failed fsync, even
		// fully — on disk. Restore the in-memory state and truncate the
		// log back to its pre-transaction length so recovery can never
		// resurrect the aborted transaction. If the truncate itself
		// fails the caller degrades to read-only, so the possibly
		// durable marker can at worst resurface the transaction at the
		// next open, never diverge from live state that kept writing.
		p.txn = txn
		p.rollbackLocked()
		// Adopt the pre-transaction offset and LSN only once the
		// truncate is durable: a failed fsync means a crash could still
		// surface the marker, so keeping wal.off advanced makes any later
		// append land after it instead of silently narrowing the
		// divergence to a crash window. In that diverged state the
		// batch's LSNs stay burned too (the file still holds records
		// carrying them), and the divergence is recorded so clearDiverged
		// can repair the log before the store re-enables writes.
		if p.wal.truncate(txn.preOff) == nil {
			p.wal.off, p.wal.lsn = txn.preOff, txn.preLSN
		} else {
			p.diverged = &divergence{off: txn.preOff, lsn: txn.preLSN}
		}
		return err
	}
	// The transaction is durable. Checkpoint opportunistically like any
	// other commit, but do not fail the committed transaction over it: a
	// checkpoint fault leaves the tail and the committed log intact
	// (see checkpoint), and the next commit retries it.
	if p.wal.off >= p.checkpointBytes {
		_ = p.checkpoint()
	}
	return nil
}

func (p *filePager) rollbackTxn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txn == nil {
		return ErrNoTxn
	}
	p.rollbackLocked()
	return nil
}

// rollbackLocked restores the pre-transaction pager state (mu held,
// p.txn non-nil). Nothing is logged while a transaction is open, so
// clearing pending and restoring the header fields is the whole undo;
// only the commit-failure path in commitTxn touches the log afterwards.
func (p *filePager) rollbackLocked() {
	txn := p.txn
	p.txn = nil
	p.numPages = txn.numPages
	p.freeHead = txn.freeHead
	p.meta = txn.meta
	p.hdrDirty = txn.hdrDirty
	clear(p.pending)
}

func (p *filePager) inTxn() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txn != nil
}

// clearDiverged is the operator repair path behind Store.ClearReadOnly:
// it proves the medium is writable again before the store re-enables
// writes. If a failed commit left the log diverged, the truncation is
// retried (restoring the pre-transaction offset and LSN); then a full
// commit + checkpoint forces the page file and an empty log to reflect
// the consistent in-memory state. Any failure leaves the store
// read-only.
func (p *filePager) clearDiverged() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txn != nil {
		return ErrTxnOpen
	}
	if p.backupActive {
		return errors.New("store: cannot clear read-only during an online backup")
	}
	if d := p.diverged; d != nil {
		if err := p.wal.truncate(d.off); err != nil {
			return err
		}
		p.wal.off = d.off
		p.wal.lsn = d.lsn
		p.diverged = nil
	}
	if err := p.commitOnly(); err != nil {
		return err
	}
	if err := p.archiveBarrier(); err != nil {
		return err
	}
	return p.checkpointLocked()
}
