package store

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// The write-ahead log makes page-file updates crash-atomic. Every
// WritePage appends a full page image to the log (buffered in memory);
// Sync appends a commit marker, writes the whole batch with a single
// WriteAt and makes it durable with a single fsync — group commit: the
// cost of durability is one fsync per flush, not per page. The main
// page file is only written at checkpoint, after the images it absorbs
// are already durable in the log, so a crash at any instant leaves
// either the old or the new committed state recoverable.
//
// Record layout (little-endian):
//
//	[0]     kind: 1 = page image, 2 = commit marker
//	[1:9]   LSN
//	[9:13]  page ID
//	[13:17] CRC32C over bytes [0:13] and the payload
//	[17: ]  page image (walPage records only, PageSize bytes)
//
// Replay applies page records in order and promotes them to the
// committed state at each valid commit marker; a record that is torn
// (short) or fails its CRC ends the scan — it and everything after it
// is the discarded tail. A checkpoint rewinds the log rather than
// truncating it, so the file can hold an older generation past the
// current one's end: replay also ends at the first record whose LSN is
// not one more than its predecessor's (older records carry lower LSNs).
const (
	walPage   = 1
	walCommit = 2
	walRecHdr = 17
)

// WALSuffix names the log file next to the page file.
const WALSuffix = ".wal"

// defaultCheckpointBytes bounds log growth: after a commit that leaves
// the log larger than this, the pager checkpoints and rewinds it.
const defaultCheckpointBytes = 4 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type wal struct {
	f     File
	buf   []byte // records appended since the last flush to f
	off   int64  // flushed bytes in f
	lsn   uint64
	dirty bool // page records appended since the last commit
	// commitLSN is the LSN of the last durable commit marker. Unlike
	// lsn it never counts records that were later discarded (a rolled
	// back transaction, a torn tail), so it is the LSN a backup or an
	// archive segment can be stamped with.
	commitLSN uint64
	// archivedOff is how much of the flushed log [0, off) has been
	// copied into an archive segment (archive.go). Only ever advanced
	// at commit boundaries, so the archived prefix always ends at a
	// commit marker.
	archivedOff int64

	appends atomic.Uint64
	commits atomic.Uint64
	fsyncs  atomic.Uint64
	bytes   atomic.Uint64
}

func newWAL(f File) *wal { return &wal{f: f} }

// pending reports whether any page image awaits a commit marker.
func (w *wal) pending() bool { return w.dirty }

// size is the log's logical length (flushed plus buffered).
func (w *wal) size() int64 { return w.off + int64(len(w.buf)) }

func (w *wal) appendRec(kind byte, id PageID, data []byte) {
	w.lsn++
	var hdr [walRecHdr]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], w.lsn)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(id))
	crc := crc32.Update(0, crcTable, hdr[:13])
	crc = crc32.Update(crc, crcTable, data)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, data...)
}

func (w *wal) appendPage(id PageID, data []byte) {
	w.appendRec(walPage, id, data)
	w.dirty = true
	w.appends.Add(1)
}

// commit seals the current batch: one commit marker, one write, one
// fsync, regardless of how many pages the batch touched.
func (w *wal) commit() error {
	w.appendRec(walCommit, 0, nil)
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.bytes.Add(uint64(len(w.buf)))
	w.buf = w.buf[:0]
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	w.commits.Add(1)
	w.dirty = false
	// The marker was the last record appended, so w.lsn is its LSN.
	w.commitLSN = w.lsn
	return nil
}

// resetLog rewinds the log after a checkpoint has made the main file
// current. The file keeps its length: the next generation overwrites
// blocks the file already has, so a commit's fsync need not also make
// the file's growth durable, and whatever of the old generation is left
// past the new end fails replay's LSN-continuity check.
func (w *wal) resetLog() {
	w.off = 0
	w.archivedOff = 0
	w.buf = w.buf[:0]
	w.dirty = false
}

// truncate durably cuts the log file to n bytes.
func (w *wal) truncate(n int64) error {
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	return nil
}

// scanRecords walks the valid record prefix of log, calling fn for each
// record (data is nil for commit markers, the page image otherwise).
// It stops at the first torn or corrupt record — or when fn returns
// false — and returns the byte offset it stopped at.
func scanRecords(log []byte, fn func(kind byte, lsn uint64, id PageID, data []byte) bool) int {
	off := 0
	for off+walRecHdr <= len(log) {
		hdr := log[off : off+walRecHdr]
		kind := hdr[0]
		if kind != walPage && kind != walCommit {
			break
		}
		var data []byte
		recLen := walRecHdr
		if kind == walPage {
			if off+walRecHdr+PageSize > len(log) {
				break // torn page record
			}
			data = log[off+walRecHdr : off+walRecHdr+PageSize]
			recLen += PageSize
		}
		crc := crc32.Update(0, crcTable, hdr[:13])
		crc = crc32.Update(crc, crcTable, data)
		if crc != binary.LittleEndian.Uint32(hdr[13:17]) {
			break
		}
		lsn := binary.LittleEndian.Uint64(hdr[1:9])
		id := PageID(binary.LittleEndian.Uint32(hdr[9:13]))
		if !fn(kind, lsn, id, data) {
			return off
		}
		off += recLen
	}
	return off
}

// walReplayInfo summarises one log replay.
type walReplayInfo struct {
	// committedLSN is the LSN of the last valid commit marker and
	// committedOff the byte offset just past it: log[0:committedOff] is
	// the committed prefix a WAL archive preserves.
	committedLSN uint64
	committedOff int64
	// discarded counts records dropped as uncommitted or torn tail; an
	// LSN break, the end of the current generation, is neither.
	discarded int
}

// replay scans the log and returns the page images established by the
// last durable commit, plus the scan summary (see walReplayInfo).
func (w *wal) replay() (committed map[PageID][]byte, info walReplayInfo, err error) {
	committed = map[PageID][]byte{}
	sz, err := w.f.Size()
	if err != nil {
		return nil, info, err
	}
	if sz == 0 {
		return committed, info, nil
	}
	log := make([]byte, sz)
	if _, err := w.f.ReadAt(log, 0); err != nil && err != io.EOF {
		return nil, info, err
	}
	pending := map[PageID][]byte{}
	recEnd := int64(0)
	next, broke := uint64(0), false // next: the LSN the next record must carry (0: any)
	off := scanRecords(log, func(kind byte, lsn uint64, id PageID, data []byte) bool {
		if next != 0 && lsn != next {
			broke = true
			return false
		}
		next = lsn + 1
		if kind == walPage {
			img := make([]byte, PageSize)
			copy(img, data)
			pending[id] = img
			recEnd += walRecHdr + PageSize
		} else {
			for pid, img := range pending {
				committed[pid] = img
			}
			pending = map[PageID][]byte{}
			recEnd += walRecHdr
			info.committedLSN = lsn
			info.committedOff = recEnd
		}
		return true
	})
	info.discarded = len(pending)
	if off < len(log) && !broke {
		info.discarded++ // the torn or corrupt record that ended the scan
	}
	return committed, info, nil
}
