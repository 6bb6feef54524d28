package store

// Transactions. The pager's normal regime makes every Sync a commit
// point; a transaction suspends that — Sync becomes a no-op, page
// images keep accumulating in memory (the WAL buffer and the tail map),
// and nothing touches either file until commitTxn appends the single
// commit marker. Rollback therefore needs no disk I/O at all: it
// discards the WAL buffer, restores the header fields and the
// pre-transaction tail images, and the files never knew the transaction
// happened. A crash mid-transaction recovers to the pre-transaction
// state for the same reason.
//
// The one hard case is a commit that fails halfway: a failed fsync
// happens after the marker has left the buffer, so the marker may or
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
// beginTxn plus, for every page stashed during the transaction, its
// pre-transaction tail image.
type pagerTxn struct {
	numPages PageID
	freeHead PageID
	meta     map[string]uint64
	hdrDirty bool
	preOff   int64  // wal.off at beginTxn, for post-failure truncation
	preLSN   uint64 // wal.lsn at beginTxn; rollback reuses the discarded LSNs
	// preTail maps each page first stashed during the transaction to the
	// tail image it had before (nil: the page was not in the tail, so
	// rollback deletes it).
	preTail map[PageID][]byte
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
	// Make the pre-transaction state durable first. After this the WAL
	// buffer is empty and nothing is pending, so everything appended
	// while the transaction is open is exactly the transaction's redo
	// set, and discarding the buffer is a complete log undo.
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
		preTail:  map[PageID][]byte{},
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
		advancedLSN := p.wal.lsn
		p.rollbackLocked()
		// Adopt the shorter offset only once the truncate is durable: a
		// failed fsync means a crash could still surface the marker, so
		// keeping wal.off advanced makes any later append land after it
		// instead of silently narrowing the divergence to a crash window.
		// In that diverged state the discarded LSNs stay burned too (the
		// file still holds records carrying them), and the divergence is
		// recorded so clearDiverged can repair the log before the store
		// re-enables writes.
		if p.wal.truncate(txn.preOff) == nil {
			p.wal.off = txn.preOff
		} else {
			p.wal.lsn = advancedLSN
			p.diverged = &divergence{off: txn.preOff, lsn: txn.preLSN}
		}
		return err
	}
	// The transaction is durable. Checkpoint opportunistically like any
	// other commit, but do not fail the committed transaction over it: a
	// checkpoint fault leaves the tail and the committed log intact
	// (see checkpoint), and the next commit retries it.
	if p.wal.size() >= p.checkpointBytes {
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
// p.txn non-nil). No file I/O happens while a transaction is open, so
// dropping the WAL buffer and restoring the in-memory images is the
// whole undo; only the commit-failure path in commitTxn touches the log
// file afterwards.
func (p *filePager) rollbackLocked() {
	txn := p.txn
	p.txn = nil
	p.numPages = txn.numPages
	p.freeHead = txn.freeHead
	p.meta = txn.meta
	p.hdrDirty = txn.hdrDirty
	for id, img := range txn.preTail {
		if img == nil {
			delete(p.tail, id)
		} else {
			p.tail[id] = img
		}
	}
	p.wal.buf = p.wal.buf[:0]
	p.wal.dirty = false
	// The discarded records never reached the file (no I/O inside a
	// transaction), so their LSNs are reused — keeping the LSN sequence
	// of what does reach the log (and hence the archive) dense.
	p.wal.lsn = txn.preLSN
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
