package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// Store bundles the pager and a buffer pool and exposes a small name->root
// metadata table used by higher layers (the EDB catalog) to find their
// structures again after reopening a file. It also owns the metrics
// registry shared by every layer of the knowledge base built on top of
// it (the store is the bottom of the stack, so the registry is created
// here and exposed upward via Obs).
type Store struct {
	pager *filePager
	pool  *Pool
	reg   *obs.Registry
	// readOnly flips on when a transaction commit fails against the
	// disk (ENOSPC, EIO, ...): the in-memory state was rolled back but
	// the medium is suspect, so the store keeps serving reads and
	// refuses writes until reopened. See Commit.
	readOnly atomic.Bool
}

// ErrReadOnly reports a write attempted on a store degraded to
// read-only mode after a failed transaction commit. Test with
// errors.Is.
var ErrReadOnly = errors.New("store: read-only (degraded after a failed commit)")

// DefaultPoolPages is the default buffer pool capacity. The paper's test
// configuration gave the kernel roughly 2 MB of working memory; 512 pages
// of 4 KiB matches that footprint.
const DefaultPoolPages = 512

// Options configures a store beyond its path. The zero value selects
// the defaults (DefaultPoolPages, the built-in checkpoint threshold,
// no WAL archiving).
type Options struct {
	// PoolPages is the buffer pool capacity (<= 0: DefaultPoolPages).
	PoolPages int
	// CheckpointBytes is the WAL size past which a commit checkpoints
	// and rewinds the log (<= 0: the built-in 4 MiB default). Small
	// thresholds cut archive segments more often.
	CheckpointBytes int64
	// ArchiveDir, when non-empty, enables WAL segment archiving: every
	// checkpoint appends the committed log to a numbered segment there
	// instead of discarding it, enabling point-in-time restore
	// (Backup/Restore). The filesystem must support directory
	// operations (ArchiveFS; the real filesystem and simfs both do).
	ArchiveDir string
	// ArchiveBudget bounds the archive's total size in bytes; oldest
	// segments are pruned first (0: unlimited).
	ArchiveBudget int64
}

// Open opens (or creates) the store at path on fsys. An empty path
// opens an in-memory store instead, and fsys is not used: the same
// crash-safe pager runs over a fresh pair of in-memory files, so it has
// transactions, an LSN and online backup like any other store. It has no
// directory to archive its log into, so it refuses opts.ArchiveDir.
func Open(fsys FS, path string, opts Options) (*Store, error) {
	if path == "" {
		if opts.ArchiveDir != "" {
			return nil, fmt.Errorf("store: ArchiveDir %q needs a store path: an in-memory store cannot archive its WAL", opts.ArchiveDir)
		}
		fsys, path = memFS{}, "mem"
	}
	pager, err := openFilePager(fsys, path, opts)
	if err != nil {
		return nil, err
	}
	poolPages := opts.PoolPages
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	reg := obs.NewRegistry()
	pager.attachObs(reg)
	s := &Store{pager: pager, pool: NewPoolObs(pager, poolPages, reg), reg: reg}
	reg.RegisterFunc("store.read_only", func() any {
		if s.readOnly.Load() {
			return uint64(1)
		}
		return uint64(0)
	})
	return s, nil
}

// Pool returns the buffer pool.
func (s *Store) Pool() *Pool { return s.pool }

// Obs returns the metrics registry shared by every layer of the
// knowledge base built on this store.
func (s *Store) Obs() *obs.Registry { return s.reg }

// Stats returns buffer pool I/O counters.
func (s *Store) Stats() IOStats { return s.pool.Stats() }

// ResetStats zeroes the I/O counters.
func (s *Store) ResetStats() { s.pool.ResetStats() }

// SetMeta records a named root value (page or packed RID) in the store
// header so it survives reopening.
func (s *Store) SetMeta(name string, v uint64) error { return s.pager.metaSet(name, v) }

// GetMeta fetches a named root value.
func (s *Store) GetMeta(name string) (uint64, bool) { return s.pager.metaGet(name) }

// Flush writes all dirty pages to the pager.
func (s *Store) Flush() error { return s.pool.FlushAll() }

// ReadOnly reports whether the store has degraded to read-only mode
// after a failed transaction commit.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Begin opens a transaction: every page written until Commit stays
// buffered in memory, invisible to the files, and Rollback restores the
// store exactly. The caller must serialize all access to the store for
// the duration (the knowledge base holds its write lock across the
// transaction). Transactions do not nest.
func (s *Store) Begin() error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	// Flush first so the pager's snapshot point contains everything the
	// pool was holding: from here on, dirty frames belong to the
	// transaction and are discarded wholesale on rollback.
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.pager.beginTxn()
}

// Commit makes the open transaction durable. On failure the
// transaction is rolled back, every buffered frame is invalidated, and
// the store degrades to read-only: reads keep working from the intact
// pre-transaction state, writes return ErrReadOnly until the store is
// reopened against a healthy disk.
func (s *Store) Commit() error {
	if !s.pager.inTxn() {
		return ErrNoTxn
	}
	if err := s.pool.FlushAll(); err != nil {
		// Write-back into the pager failed before the commit point; the
		// pager still holds a consistent transaction to undo.
		if rerr := s.pager.rollbackTxn(); rerr == nil {
			s.pool.Invalidate()
		}
		s.readOnly.Store(true)
		return err
	}
	if err := s.pager.commitTxn(); err != nil {
		if errors.Is(err, ErrNoTxn) {
			return err // caller error, not a disk fault
		}
		// commitTxn rolled the pager back itself; drop every cached
		// frame so no rolled-back bytes survive in the pool.
		s.pool.Invalidate()
		s.readOnly.Store(true)
		return err
	}
	return nil
}

// Rollback undoes the open transaction: the pager restores its
// pre-transaction state and the buffer pool drops every frame (clean or
// dirty — either may hold transaction bytes).
func (s *Store) Rollback() error {
	if err := s.pager.rollbackTxn(); err != nil {
		return err
	}
	s.pool.Invalidate()
	return nil
}

// InTxn reports whether a transaction is open.
func (s *Store) InTxn() bool { return s.pager.inTxn() }

// Close flushes and closes the underlying file.
func (s *Store) Close() error {
	if err := s.pool.FlushAll(); err != nil {
		s.pager.Close()
		return err
	}
	return s.pager.Close()
}
