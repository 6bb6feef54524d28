package store

// Online backup and point-in-time restore. A backup is a copy of the
// page file's disk frames taken while the store keeps serving reads
// AND writes: starting the backup forces a checkpoint (so the frames
// hold the complete committed state) and then freezes them — further
// checkpoints are suspended, so concurrent writers proceed normally:
// their pages land in the pager's pending map, their commits in the WAL
// and the tail map, which simply grow until the backup finishes. Every
// copied frame is therefore exactly the committed state at the
// backup-start LSN; no page-level fuzziness needs repairing at restore
// time. Frames are copied one page at a time under the pager mutex —
// there is no global freeze, and each copy window is one frame long.
//
// Restore lays the frames back down and, to reach any LSN past the
// backup start, replays archived WAL segments (archive.go) up to an
// exact committed transaction boundary. The backup-end LSN stamped in
// the stream trailer is a commit boundary guaranteed covered by the
// archive: Finish seals a commit marker and runs an explicit archive
// barrier before the stamp is written, and a barrier failure fails the
// backup — never the primary.
//
// Stream format (little-endian):
//
//	header   [0:4] magic, [4:8] version, [8:12] page count,
//	         [12:20] backup-start LSN
//	frames   page count x diskFrameSize raw frames (each self-verifying
//	         via its CRC trailer; all-zero frames are file holes)
//	trailer  [0:4] trailer magic, [4:12] backup-end LSN,
//	         [12:16] CRC32C over the entire stream up to this field
//
// Every reader (Restore) verifies the stream CRC, the per-frame CRCs
// and both magics, so a torn or bit-flipped backup fails loudly.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	backupMagic   = 0xEDB5CA1E
	backupVersion = 1
	backupTrailer = 0xEDB5F1A1
)

// BackupInfo describes a completed backup.
type BackupInfo struct {
	// StartLSN is the committed LSN the page image is consistent at.
	StartLSN uint64
	// EndLSN is the last committed LSN covered by the WAL archive when
	// the backup finished; restoring with the archive reaches any
	// committed boundary in [StartLSN, EndLSN] and beyond, as later
	// segments accrue. Without archiving, EndLSN == StartLSN.
	EndLSN uint64
	// Pages is the number of frames in the image.
	Pages uint32
}

// Backup is an in-progress online backup. Obtain one with
// Store.StartBackup, drive it with CopyPages, and always end it with
// Finish or Abort — the page file's frames stay frozen (checkpoints
// suspended) until then. Methods must not be called concurrently;
// store writes may proceed freely in other goroutines throughout.
type Backup struct {
	p        *filePager
	w        io.Writer
	crc      uint32
	startLSN uint64
	pages    PageID
	next     PageID
	done     bool
}

// ErrBackupActive reports a second backup started while one is open.
var ErrBackupActive = errors.New("store: online backup already in progress")

// StartBackup begins an online backup streaming to w: it flushes the
// pool, forces a durable checkpoint (archiving the log first when
// archiving is enabled), freezes the page file and writes the stream
// header. The caller must serialize StartBackup itself against writers
// (the knowledge base takes its read lock for this instant); the copy
// loop then runs with writers proceeding concurrently.
func (s *Store) StartBackup(w io.Writer) (*Backup, error) {
	if err := s.pool.FlushAll(); err != nil {
		return nil, err
	}
	startLSN, pages, err := s.pager.beginBackup()
	if err != nil {
		return nil, err
	}
	b := &Backup{p: s.pager, w: w, startLSN: startLSN, pages: pages}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], backupMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], backupVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(pages))
	binary.LittleEndian.PutUint64(hdr[12:20], startLSN)
	if err := b.emit(hdr[:]); err != nil {
		b.Abort()
		return nil, err
	}
	return b, nil
}

// emit writes buf to the stream, folding it into the running CRC.
func (b *Backup) emit(buf []byte) error {
	b.crc = crc32.Update(b.crc, crcTable, buf)
	_, err := b.w.Write(buf)
	return err
}

// CopyPages copies up to n frames (n <= 0: all remaining), verifying
// each frame's checksum on the way out, and reports whether the image
// is complete. On error the backup is unusable; call Abort.
func (b *Backup) CopyPages(n int) (done bool, err error) {
	if b.done {
		return true, nil
	}
	for i := 0; (n <= 0 || i < n) && b.next < b.pages; i++ {
		frame, err := b.p.copyFrame(b.next)
		if err != nil {
			return false, err
		}
		if err := b.emit(frame); err != nil {
			return false, err
		}
		b.next++
	}
	return b.next >= b.pages, nil
}

// Progress reports how many frames have been copied and the total
// frame count, for operator-facing progress displays.
func (b *Backup) Progress() (copied, total PageID) { return b.next, b.pages }

// Finish completes the backup: it seals a commit marker (so the end
// LSN is a transaction boundary), archives the log through it, stamps
// the trailer and unfreezes the page file. An archive fault here fails
// the backup — the primary is unaffected and keeps its committed log.
func (b *Backup) Finish() (BackupInfo, error) {
	if b.done {
		return BackupInfo{}, errors.New("store: backup already finished")
	}
	if b.next < b.pages {
		b.Abort()
		return BackupInfo{}, fmt.Errorf("store: backup incomplete: %d of %d pages copied", b.next, b.pages)
	}
	b.done = true
	endLSN, err := b.p.endBackup(b.startLSN)
	if err != nil {
		return BackupInfo{}, err
	}
	var tr [16]byte
	binary.LittleEndian.PutUint32(tr[0:4], backupTrailer)
	binary.LittleEndian.PutUint64(tr[4:12], endLSN)
	b.crc = crc32.Update(b.crc, crcTable, tr[:12])
	binary.LittleEndian.PutUint32(tr[12:16], b.crc)
	if _, err := b.w.Write(tr[:]); err != nil {
		return BackupInfo{}, err
	}
	return BackupInfo{StartLSN: b.startLSN, EndLSN: endLSN, Pages: uint32(b.pages)}, nil
}

// Abort ends the backup without a trailer, unfreezing the page file.
// The partial stream fails restore's checks by construction.
func (b *Backup) Abort() {
	if b.done {
		return
	}
	b.done = true
	b.p.abortBackup()
}

// Backup streams a complete online backup to w. Writers may run
// concurrently; only the instants of starting and finishing need the
// caller's serialization against open transactions (see
// KnowledgeBase.Backup for the coordinated form).
func (s *Store) Backup(w io.Writer) (BackupInfo, error) {
	b, err := s.StartBackup(w)
	if err != nil {
		return BackupInfo{}, err
	}
	for {
		done, err := b.CopyPages(64)
		if err != nil {
			b.Abort()
			return BackupInfo{}, err
		}
		if done {
			break
		}
	}
	return b.Finish()
}

// LSN reports the LSN of the last durable commit. At a quiescent
// commit boundary it identifies exactly the transaction-consistent
// state a backup or restore at this LSN reproduces.
func (s *Store) LSN() uint64 { return s.pager.commitLSNNow() }

// ClearReadOnly is the operator path out of read-only degradation
// (a failed transaction commit flips the store read-only; see Commit).
// It verifies the medium is healthy again by repairing any log
// divergence and forcing a full checkpoint; only if that entirely
// succeeds are writes re-enabled. With the disk still faulty the store
// stays read-only and the error says why.
func (s *Store) ClearReadOnly() error {
	if !s.readOnly.Load() {
		return nil
	}
	if err := s.pager.clearDiverged(); err != nil {
		return err
	}
	s.readOnly.Store(false)
	return nil
}

// --- pager side -----------------------------------------------------

// beginBackup forces a durable checkpoint and freezes the page file.
// Returns the LSN the frames are consistent at and the frame count.
func (p *filePager) beginBackup() (startLSN uint64, pages PageID, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backupActive {
		return 0, 0, ErrBackupActive
	}
	if p.txn != nil {
		return 0, 0, errors.New("store: cannot start a backup inside a transaction")
	}
	if p.diverged != nil {
		return 0, 0, errors.New("store: cannot back up a diverged store (clear read-only first)")
	}
	if err := p.commitOnly(); err != nil {
		return 0, 0, err
	}
	// The checkpoint about to fold and rewind the log must not lose
	// archived history, so the barrier failing fails the backup — the
	// primary keeps its committed log and retries archiving later.
	if err := p.archiveBarrier(); err != nil {
		return 0, 0, err
	}
	if err := p.checkpointLocked(); err != nil {
		return 0, 0, err
	}
	p.backupActive = true
	return p.wal.commitLSN, p.numPages, nil
}

// copyFrame returns a private copy of the raw disk frame of page id,
// checksum-verified (allocated-but-never-written holes pass as zero
// frames). The frames are frozen while a backup is active, so the pager
// mutex is held only for the one read.
func (p *filePager) copyFrame(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.readFrame(id); err != nil {
		return nil, err
	}
	return append([]byte(nil), p.scratch[:]...), nil
}

// endBackup seals a commit boundary, archives through it, and
// unfreezes the page file. The freeze ends whether or not the barrier
// succeeds — a failed barrier fails the backup, not the primary.
func (p *filePager) endBackup(startLSN uint64) (endLSN uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backupActive = false
	if p.txn != nil {
		// Callers coordinate so this cannot happen (the knowledge base
		// finishes under its read lock, which excludes transactions);
		// sealing a marker here would commit a half-open transaction.
		return 0, errors.New("store: cannot finish a backup inside a transaction")
	}
	if err := p.commitOnly(); err != nil {
		return 0, err
	}
	if p.archive == nil {
		// No archive: the image alone is the backup, restorable only at
		// its start LSN.
		return startLSN, nil
	}
	if err := p.archiveBarrier(); err != nil {
		return 0, err
	}
	endLSN = p.wal.commitLSN
	if p.wal.off >= p.checkpointBytes {
		_ = p.checkpoint()
	}
	return endLSN, nil
}

// abortBackup unfreezes the page file after a failed or abandoned
// backup, retrying any checkpoint the freeze deferred. That checkpoint
// may run between two syncs; like every checkpoint it folds only what
// commits logged, never a writer's pending pages.
func (p *filePager) abortBackup() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backupActive = false
	if p.wal.off >= p.checkpointBytes {
		_ = p.checkpoint()
	}
}

// --- restore ---------------------------------------------------------

// Restore reconstructs a store at path from a backup stream, replaying
// archived WAL segments from archiveDir (empty: none) up to targetLSN
// — 0 meaning everything archived, otherwise an exact committed
// transaction boundary (anything else is an error). The stream and
// every frame are checksum-verified; any corruption or missing history
// fails loudly before the target files are considered usable.
func Restore(path string, r io.Reader, archiveDir string, targetLSN uint64) error {
	return RestoreFS(OSFS{}, path, r, archiveDir, targetLSN)
}

// RestoreFS is Restore over an explicit filesystem.
func RestoreFS(fsys FS, path string, r io.Reader, archiveDir string, targetLSN uint64) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	const hdrLen, trLen = 20, 16
	if len(data) < hdrLen+trLen {
		return errors.New("store: restore: backup stream truncated")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != backupMagic {
		return errors.New("store: restore: not a backup stream (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != backupVersion {
		return fmt.Errorf("store: restore: unsupported backup version %d", v)
	}
	pages := binary.LittleEndian.Uint32(data[8:12])
	startLSN := binary.LittleEndian.Uint64(data[12:20])
	want := hdrLen + int(pages)*diskFrameSize + trLen
	if len(data) != want {
		return fmt.Errorf("store: restore: backup stream is %d bytes, want %d for %d pages", len(data), want, pages)
	}
	tr := data[len(data)-trLen:]
	if binary.LittleEndian.Uint32(tr[0:4]) != backupTrailer {
		return errors.New("store: restore: backup stream has no trailer (backup aborted?)")
	}
	endLSN := binary.LittleEndian.Uint64(tr[4:12])
	if crc := crc32.Checksum(data[:len(data)-4], crcTable); crc != binary.LittleEndian.Uint32(tr[12:16]) {
		return fmt.Errorf("store: restore: stream CRC mismatch: %w", ErrChecksum)
	}
	frames := data[hdrLen : len(data)-trLen]
	for id := PageID(0); id < PageID(pages); id++ {
		frame := frames[int(id)*diskFrameSize : (int(id)+1)*diskFrameSize]
		if allZero(frame) {
			continue
		}
		stored := binary.LittleEndian.Uint32(frame[PageSize+4:])
		if crc := frameCRC(id, frame[:PageSize+4]); crc != stored {
			return fmt.Errorf("store: restore: page %d: stored CRC %#08x, computed %#08x: %w", id, stored, crc, ErrChecksum)
		}
	}
	if targetLSN != 0 && targetLSN < startLSN {
		return fmt.Errorf("store: restore: target LSN %d predates the backup image (start LSN %d)", targetLSN, startLSN)
	}
	if archiveDir == "" && targetLSN != 0 && targetLSN != startLSN {
		return fmt.Errorf("store: restore: target LSN %d needs a WAL archive (image is consistent at %d)", targetLSN, startLSN)
	}
	_ = endLSN // informational: later segments may extend past it

	// Checks done; lay the image down.
	f, err := fsys.OpenFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(frames, 0); err != nil {
		return err
	}
	// Roll forward through the archive to the target boundary.
	if archiveDir != "" && (targetLSN == 0 || targetLSN > startLSN) {
		afs, ok := fsys.(ArchiveFS)
		if !ok {
			return fmt.Errorf("store: restore: filesystem %T cannot read a WAL archive", fsys)
		}
		_, err := replayArchive(afs, archiveDir, startLSN, targetLSN, func(id PageID, lsn uint64, img []byte) error {
			frame := make([]byte, diskFrameSize)
			copy(frame, img)
			binary.LittleEndian.PutUint32(frame[PageSize:PageSize+4], uint32(lsn))
			binary.LittleEndian.PutUint32(frame[PageSize+4:], frameCRC(id, frame[:PageSize+4]))
			_, werr := f.WriteAt(frame, int64(id)*diskFrameSize)
			return werr
		})
		if err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// A fresh, empty log: the restored state is wholly in the page file.
	wf, err := fsys.OpenFile(path + WALSuffix)
	if err != nil {
		return err
	}
	defer wf.Close()
	if err := wf.Truncate(0); err != nil {
		return err
	}
	return wf.Sync()
}
