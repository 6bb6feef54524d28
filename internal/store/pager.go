// Package store is the storage engine standing in for the BANG file system
// used by Educe* (paper §3.3.2, §4): a page file with a buffer pool,
// slotted-page heap files for variable-length records (compiled clause
// code) and a B+tree for ordered keys (primary keys, Wisconsin range
// selections, and the knowledge base's one clause index whose prefix
// searches drive pre-unification).
//
// All I/O is counted through the buffer pool, which is how the benchmark
// harness reproduces the paper's I/O-frequency table (Table 2b).
//
// Every store, in-memory included, runs the one crash-safe pager: every
// page carries a CRC32C trailer verified on read, updates go through a
// write-ahead log (wal.go) with group commit, and opening a file replays
// the log, discarding any torn tail, before the header is trusted. An
// in-memory store is that pager over a pair of in-memory files (vfs.go).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page within a store file. Page 0 is the header.
type PageID uint32

// invalidPage marks "no page".
const invalidPage PageID = 0

// RID addresses a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Pack encodes the RID into a uint64.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID { return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xffff)} }

// Pager reads and writes fixed-size pages. It is the buffer pool's view
// of the store's one pager, the crash-safe filePager; fault-injection
// tests wrap it.
type Pager interface {
	// ReadPage fills buf (PageSize bytes) with page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf as page id.
	WritePage(id PageID, buf []byte) error
	// Allocate returns a fresh page (zeroed), reusing freed pages.
	Allocate() (PageID, error)
	// Free returns a page to the free list.
	Free(id PageID) error
	// NumPages reports the number of pages ever allocated (including
	// header and freed pages).
	NumPages() PageID
	// Sync is the commit point: everything written since the previous
	// Sync becomes durable atomically.
	Sync() error
	Close() error
}

// On disk, each logical page occupies a diskFrameSize frame: PageSize
// data bytes, the low half of the LSN that wrote the frame, then a
// CRC32C over the page ID, the data, and the LSN field — the ID so a
// frame can never be misread as a different page, the LSN so every
// byte of the frame is covered. Keeping the trailer outside the
// logical page means the page-layout code of the heap and B+tree is
// unaware of checksums.
const (
	frameTrailer  = 8
	diskFrameSize = PageSize + frameTrailer
)

// ErrChecksum reports that a page read from the file failed CRC
// verification: the page was torn or corrupted on disk. It is always
// returned wrapped with the page number; test with errors.Is.
var ErrChecksum = errors.New("store: page checksum mismatch")

func frameCRC(id PageID, data []byte) uint32 {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(id))
	c := crc32.Update(0, crcTable, idb[:])
	return crc32.Update(c, crcTable, data)
}

// header page layout (page 0 data, stored with a frame trailer like any
// other page):
//
//	[0:4]   magic
//	[4:8]   page count
//	[8:12]  free list head
//	[12:20] LSN at the last commit
//	[20:  ] meta table: count, then (name, rootPage) pairs
const pagerMagic = 0xBA461991

var errBadMagic = errors.New("store: not a store file (bad magic)")

// filePager is a crash-safe Pager over two Files: the page file and its
// write-ahead log. A page write lands in pending, one image per page;
// Sync logs every pending page once, then the header, then a commit
// marker, with one log write and one fsync, and moves the images into
// tail; a checkpoint folds tail into the page file and rewinds the log.
// The header (page count, free list, meta table) lives in memory and is
// logged with every commit as the page-0 image, so Allocate and Free
// are pure memory operations.
type filePager struct {
	mu       sync.Mutex
	f        File
	wal      *wal
	numPages PageID
	freeHead PageID
	meta     map[string]uint64
	hdrDirty bool
	// pending holds the image of every page written since the last
	// commit; nothing of it is in either file yet. Reads try it first.
	pending map[PageID][]byte
	// tail holds the committed image of every page logged since the last
	// checkpoint, the header (page 0) included; reads try it next, then
	// the page file. A checkpoint folds exactly tail.
	tail map[PageID][]byte
	// txn, when non-nil, is the undo record of the open transaction
	// (txn.go): commits are suspended until commitTxn.
	txn *pagerTxn
	// archive, when non-nil, receives the committed log at every
	// checkpoint instead of it being discarded (archive.go).
	archive *archiver
	// backupActive, while true, blocks checkpoints: an online backup
	// (backup.go) is copying the page file's frames and they must stay
	// frozen at the backup-start state. Commits keep working — writers
	// proceed into pending, and commits into the log and the tail.
	backupActive bool
	// diverged, when non-nil, records a failed-commit cleanup that
	// could not be made durable (txn.go): the log may still hold the
	// aborted transaction's records past diverged.off. clearDiverged
	// retries the cleanup before the store re-enables writes.
	diverged *divergence

	checkpointBytes int64

	// scratch receives every disk frame read from the page file (lock
	// held), so a read allocates nothing.
	scratch [diskFrameSize]byte

	checksumErrors atomic.Uint64
	checkpoints    atomic.Uint64
	recoveredPages uint64 // pages replayed from the log at open
	discardedRecs  uint64 // uncommitted/torn log records dropped at open
}

// openFilePager opens (or creates) the page file path on fsys, replaying
// the write-ahead log at path+WALSuffix if a previous run crashed.
func openFilePager(fsys FS, path string, opts Options) (*filePager, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, err
	}
	wf, err := fsys.OpenFile(path + WALSuffix)
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &filePager{
		f:               f,
		wal:             newWAL(wf),
		meta:            map[string]uint64{},
		pending:         map[PageID][]byte{},
		tail:            map[PageID][]byte{},
		checkpointBytes: defaultCheckpointBytes,
	}
	if opts.CheckpointBytes > 0 {
		p.checkpointBytes = opts.CheckpointBytes
	}
	if opts.ArchiveDir != "" {
		afs, ok := fsys.(ArchiveFS)
		if !ok {
			f.Close()
			wf.Close()
			return nil, fmt.Errorf("store: filesystem %T cannot host a WAL archive (no directory operations)", fsys)
		}
		p.archive, err = openArchiver(afs, opts.ArchiveDir, opts.ArchiveBudget)
		if err != nil {
			f.Close()
			wf.Close()
			return nil, err
		}
	}
	if err := p.recoverLog(); err != nil {
		wf.Close()
		f.Close()
		return nil, err
	}
	sz, err := f.Size()
	if err != nil {
		wf.Close()
		f.Close()
		return nil, err
	}
	if sz == 0 {
		// Fresh file: the header exists only in memory until the first
		// commit reaches disk.
		p.numPages = 1
		p.hdrDirty = true
		return p, nil
	}
	if err := p.readHeader(); err != nil {
		wf.Close()
		f.Close()
		return nil, err
	}
	return p, nil
}

// recoverLog replays the WAL: committed page images are folded into the
// page file (idempotent — a crash during recovery just replays again)
// and the log is truncated; uncommitted or torn tail records are
// dropped. With archiving enabled, the committed prefix is appended to
// the archive first — recovery is a checkpoint, and checkpoints never
// discard committed history. Discarded records' LSNs are reused (the
// log restarts at the committed LSN), keeping archived LSNs dense.
func (p *filePager) recoverLog() error {
	committed, info, err := p.wal.replay()
	if err != nil {
		return err
	}
	if info.committedLSN < p.checkpointLSN() {
		// A stale head: the first write of a generation reached the disk
		// without its first blocks, so replay read a prefix of the
		// generation before, which the page file already holds whole.
		committed, info.committedOff = nil, 0
	}
	p.discardedRecs = uint64(info.discarded)
	p.wal.lsn = info.committedLSN
	p.wal.commitLSN = info.committedLSN
	if len(committed) > 0 {
		for _, id := range sortedPageIDs(committed) {
			if err := p.writeFrame(id, committed[id]); err != nil {
				return err
			}
		}
		if err := p.f.Sync(); err != nil {
			return err
		}
		p.recoveredPages = uint64(len(committed))
	}
	sz, err := p.wal.f.Size()
	if err != nil {
		return err
	}
	if sz == 0 {
		return nil
	}
	if p.archive != nil && info.committedOff > 0 {
		// The pre-crash archived offset is unknown, so the whole
		// committed prefix is (re-)archived; replay deduplicates by LSN.
		recs := make([]byte, info.committedOff)
		if _, err := p.wal.f.ReadAt(recs, 0); err != nil && err != io.EOF {
			return err
		}
		if err := p.archive.append(recs, info.committedLSN); err != nil {
			// Archive fault: keep the committed log live instead of
			// truncating history away, but cut the discarded tail first:
			// new records reuse its LSNs, so a stale one just past the
			// new end could continue the sequence. A later checkpoint
			// retries the archive.
			p.archive.faults.Add(1)
			p.wal.off = info.committedOff
			return p.wal.truncate(info.committedOff)
		}
	}
	return p.wal.truncate(0)
}

// checkpointLSN is the LSN in the page file's header frame, the last
// commit a completed checkpoint folded in; 0 if the frame is missing or
// torn (a crash inside the checkpoint that wrote it).
func (p *filePager) checkpointLSN() uint64 {
	f := p.scratch[:]
	if n, _ := p.f.ReadAt(f, 0); n < diskFrameSize || frameCRC(0, f[:PageSize+4]) != binary.LittleEndian.Uint32(f[PageSize+4:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(f[12:20])
}

// encodeHeaderPage encodes the in-memory header stamped with lsn, the
// LSN of the commit marker that will commit it.
func (p *filePager) encodeHeaderPage(lsn uint64) ([]byte, error) {
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(pagerMagic))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(p.numPages))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(p.freeHead))
	binary.LittleEndian.PutUint64(buf[12:20], lsn)
	off := 20
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(p.meta)))
	off += 4
	for name, root := range p.meta {
		if off+4+len(name)+8 > PageSize {
			return nil, errors.New("store: header meta table overflow")
		}
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(name)))
		off += 4
		copy(buf[off:], name)
		off += len(name)
		binary.LittleEndian.PutUint64(buf[off:off+8], root)
		off += 8
	}
	return buf, nil
}

func (p *filePager) readHeader() error {
	if err := p.readFrame(0); err != nil {
		return err
	}
	buf := p.scratch[:PageSize]
	if binary.LittleEndian.Uint32(buf[0:4]) != uint32(pagerMagic) {
		return errBadMagic
	}
	p.numPages = PageID(binary.LittleEndian.Uint32(buf[4:8]))
	p.freeHead = PageID(binary.LittleEndian.Uint32(buf[8:12]))
	if lsn := binary.LittleEndian.Uint64(buf[12:20]); lsn > p.wal.lsn {
		// The header is stamped with the marker that committed it, so
		// its LSN is a committed LSN.
		p.wal.lsn = lsn
		p.wal.commitLSN = lsn
	}
	off := 20
	n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
	off += 4
	for i := 0; i < n; i++ {
		ln := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
		name := string(buf[off : off+ln])
		off += ln
		p.meta[name] = binary.LittleEndian.Uint64(buf[off : off+8])
		off += 8
	}
	return nil
}

// writeFrame writes data as page id's frame in the page file, trailer
// included.
func (p *filePager) writeFrame(id PageID, data []byte) error {
	frame := make([]byte, diskFrameSize)
	copy(frame, data[:PageSize])
	binary.LittleEndian.PutUint32(frame[PageSize:PageSize+4], uint32(p.wal.lsn))
	binary.LittleEndian.PutUint32(frame[PageSize+4:], frameCRC(id, frame[:PageSize+4]))
	_, err := p.f.WriteAt(frame, int64(id)*diskFrameSize)
	return err
}

// readFrame reads page id's disk frame into p.scratch and verifies it:
// a short frame must be all zeros and a full one must match its CRC.
// Frames beyond EOF or wholly zero (file holes: allocated, never
// checkpointed) read as zero frames. Callers hold the lock, or own the
// pager outright while opening it.
func (p *filePager) readFrame(id PageID) error {
	frame := p.scratch[:]
	n, err := p.f.ReadAt(frame, int64(id)*diskFrameSize)
	if err != nil && err != io.EOF {
		return err
	}
	if n < diskFrameSize {
		if allZero(frame[:n]) {
			clear(frame)
			return nil
		}
		p.checksumErrors.Add(1)
		return fmt.Errorf("store: page %d: torn frame (%d of %d bytes): %w", id, n, diskFrameSize, ErrChecksum)
	}
	stored := binary.LittleEndian.Uint32(frame[PageSize+4:])
	if crc := frameCRC(id, frame[:PageSize+4]); crc != stored && !allZero(frame) {
		p.checksumErrors.Add(1)
		return fmt.Errorf("store: page %d: stored CRC %#08x, computed %#08x: %w", id, stored, crc, ErrChecksum)
	}
	return nil
}

// sortedPageIDs returns m's keys ascending: frame write-back proceeds
// in page order, keeping the I/O sequential and the crash harness's op
// numbering deterministic.
func sortedPageIDs(m map[PageID][]byte) []PageID {
	ids := make([]PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func (p *filePager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.numPages {
		return fmt.Errorf("store: read of unallocated page %d", id)
	}
	if img := p.image(id); img != nil {
		copy(buf[:PageSize], img)
		return nil
	}
	if err := p.readFrame(id); err != nil {
		return err
	}
	copy(buf[:PageSize], p.scratch[:])
	return nil
}

func (p *filePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.numPages {
		return fmt.Errorf("store: write of unallocated page %d", id)
	}
	p.stash(id, buf)
	return nil
}

// image returns page id's latest image held in memory, pending before
// tail, or nil if the page file holds it (lock held).
func (p *filePager) image(id PageID) []byte {
	if img, ok := p.pending[id]; ok {
		return img
	}
	return p.tail[id]
}

// stash records buf as page id's pending image, overwriting any earlier
// one in place (lock held). Nothing touches either file here: the image
// is logged at the next commit and reaches its home frame at the
// checkpoint after that.
func (p *filePager) stash(id PageID, buf []byte) {
	img := p.pending[id]
	if img == nil {
		img = make([]byte, PageSize)
		p.pending[id] = img
	}
	copy(img, buf[:PageSize])
}

func (p *filePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freeHead != invalidPage {
		id := p.freeHead
		link := p.scratch[:4] // filled by readFrame below
		if img := p.image(id); img != nil {
			link = img[:4]
		} else if err := p.readFrame(id); err != nil {
			return 0, err
		}
		p.freeHead = PageID(binary.LittleEndian.Uint32(link))
		p.stash(id, make([]byte, PageSize)) // reused pages must read as zero
		p.hdrDirty = true
		return id, nil
	}
	// Fresh pages need no write at all: they read as zeros until first
	// written, and the grown page count rides with the next commit.
	id := p.numPages
	p.numPages++
	p.hdrDirty = true
	return id, nil
}

func (p *filePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == 0 || id >= p.numPages {
		return fmt.Errorf("store: free of invalid page %d", id)
	}
	buf := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(buf[:4], uint32(p.freeHead))
	p.stash(id, buf)
	p.freeHead = id
	p.hdrDirty = true
	return nil
}

func (p *filePager) NumPages() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

// Sync is the commit point: the header page and every page written
// since the last Sync become durable atomically (or, after a crash, the
// store recovers to the previous Sync). With nothing to commit it is
// free — no write, no fsync.
func (p *filePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commit()
}

// commit makes everything pending durable, then checkpoints if the log
// has grown past its limit — including a checkpoint left over from an
// earlier fault, which retries here even when nothing new is pending.
// While a transaction is open, commit is a no-op: durability waits for
// commitTxn.
func (p *filePager) commit() error {
	if p.txn != nil {
		return nil
	}
	if err := p.commitOnly(); err != nil {
		return err
	}
	if p.wal.off >= p.checkpointBytes {
		return p.checkpoint()
	}
	return nil
}

// commitOnly logs every pending page once, in page order, then the
// header and a commit marker, and moves the committed images into the
// tail (no checkpoint). With nothing pending it is free. On failure the
// images stay pending, so a retry logs a superset of the batch.
func (p *filePager) commitOnly() error {
	if !p.hdrDirty && len(p.pending) == 0 {
		return nil
	}
	ids := sortedPageIDs(p.pending)
	// The batch is one record per page, the header's, then the marker's.
	hdr, err := p.encodeHeaderPage(p.wal.lsn + uint64(len(ids)) + 2)
	if err != nil {
		return err
	}
	if err := p.wal.commit(ids, p.pending, hdr); err != nil {
		return err
	}
	for _, id := range ids {
		p.tail[id] = p.pending[id]
	}
	p.tail[0] = hdr
	clear(p.pending)
	p.hdrDirty = false
	return nil
}

// checkpoint folds the tail, every image a commit logged since the last
// checkpoint, into the page file and rewinds the log; pending images
// stay in memory. During an online backup it is a no-op
// (the page file's frames must stay frozen; the log simply keeps
// growing until the backup finishes), and with archiving enabled an
// archive fault skips the checkpoint rather than either failing the
// commit or truncating unarchived history — the committed log stays
// live and a later checkpoint retries.
func (p *filePager) checkpoint() error {
	if p.backupActive {
		return nil
	}
	if p.diverged != nil {
		// The log may hold an aborted transaction past diverged.off;
		// neither archive nor truncate it until clearDiverged repairs
		// the log (the store is read-only in this state anyway).
		return nil
	}
	if err := p.archiveBarrier(); err != nil {
		p.archive.faults.Add(1)
		return nil
	}
	return p.checkpointLocked()
}

// archiveBarrier appends the not-yet-archived committed log prefix
// [archivedOff, off) to the archive. Must be called at a commit
// boundary (the flushed log ends at a commit marker). No-op when
// archiving is disabled.
func (p *filePager) archiveBarrier() error {
	if p.archive == nil || p.wal.off == p.wal.archivedOff {
		return nil
	}
	recs := make([]byte, p.wal.off-p.wal.archivedOff)
	if _, err := p.wal.f.ReadAt(recs, p.wal.archivedOff); err != nil && err != io.EOF {
		return fmt.Errorf("%w: %v", errArchive, err)
	}
	if err := p.archive.append(recs, p.wal.commitLSN); err != nil {
		return err
	}
	p.wal.archivedOff = p.wal.off
	return nil
}

// checkpointLocked is the fold half of a checkpoint, past the archive
// barrier and the backup guard. The header it folds is the one the last
// commit logged, stamped with that commit's LSN: recoverLog's stale-head
// check compares replay's last commit against it.
func (p *filePager) checkpointLocked() error {
	if p.wal.off == 0 && len(p.tail) == 0 {
		return nil // nothing logged since the last checkpoint
	}
	for _, id := range sortedPageIDs(p.tail) {
		if err := p.writeFrame(id, p.tail[id]); err != nil {
			return err
		}
	}
	if err := p.f.Sync(); err != nil {
		return err
	}
	p.wal.resetLog()
	p.tail = map[PageID][]byte{}
	p.checkpoints.Add(1)
	return nil
}

func (p *filePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txn != nil {
		// An abandoned transaction is rolled back, never committed:
		// without the rollback the commit/checkpoint below would
		// persist its half-applied images.
		p.rollbackLocked()
	}
	err := p.commit()
	if err == nil {
		err = p.checkpoint()
	}
	if err == nil && p.wal.off == 0 {
		// Checkpointed: a closed store keeps no log, old generations
		// included.
		var sz int64
		if sz, err = p.wal.f.Size(); err == nil && sz > 0 {
			err = p.wal.truncate(0)
		}
	}
	if werr := p.wal.f.Close(); err == nil && werr != nil {
		err = werr
	}
	if ferr := p.f.Close(); err == nil && ferr != nil {
		err = ferr
	}
	return err
}

// attachObs exposes the pager's durability counters in the knowledge
// base's metrics registry. The pager exists before the registry (the
// store creates the registry after opening the pager, and recovery has
// already run), so the metrics are registered as readers over the
// pager's own counters rather than registry-owned handles.
func (p *filePager) attachObs(reg *obs.Registry) {
	reg.RegisterFunc("store.wal.appends", func() any { return p.wal.appends.Load() })
	reg.RegisterFunc("store.wal.commits", func() any { return p.wal.commits.Load() })
	reg.RegisterFunc("store.wal.fsyncs", func() any { return p.wal.fsyncs.Load() })
	reg.RegisterFunc("store.wal.bytes", func() any { return p.wal.bytes.Load() })
	reg.RegisterFunc("store.wal.checkpoints", func() any { return p.checkpoints.Load() })
	reg.RegisterFunc("store.wal.recovered_pages", func() any { return p.recoveredPages })
	reg.RegisterFunc("store.wal.discarded_records", func() any { return p.discardedRecs })
	reg.RegisterFunc("store.checksum_errors", func() any { return p.checksumErrors.Load() })
	reg.RegisterFunc("store.wal.archive_segments", func() any {
		if p.archive == nil {
			return uint64(0)
		}
		return p.archive.segments.Load()
	})
	reg.RegisterFunc("store.wal.archive_bytes", func() any {
		if p.archive == nil {
			return uint64(0)
		}
		return p.archive.abytes.Load()
	})
	reg.RegisterFunc("store.wal.archive_pruned", func() any {
		if p.archive == nil {
			return uint64(0)
		}
		return p.archive.pruned.Load()
	})
	reg.RegisterFunc("store.wal.archive_errors", func() any {
		if p.archive == nil {
			return uint64(0)
		}
		return p.archive.faults.Load()
	})
}

// commitLSNNow returns the LSN of the last durable commit marker.
func (p *filePager) commitLSNNow() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal.commitLSN
}

func (p *filePager) metaGet(name string) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.meta[name]
	return v, ok
}

// metaSet updates the in-memory header; like Allocate and Free it costs
// no I/O — the header persists with the next commit.
func (p *filePager) metaSet(name string, v uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta[name] = v
	p.hdrDirty = true
	return nil
}
