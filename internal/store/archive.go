package store

// WAL segment archiving: instead of discarding the committed log at
// every checkpoint, the pager appends it to a numbered segment file in
// an archive directory. The archive is the store's history — a backup
// image (backup.go) stamped with its start LSN plus the archived
// segments covering LSNs beyond it can reconstruct the store at any
// later committed transaction boundary (point-in-time recovery).
//
// Segment format (little-endian), named <seq>%016d + ".walseg":
//
//	[0:4]   magic
//	[4:8]   format version
//	[8:16]  sequence number (must match the file name)
//	[16:24] last committed LSN in the segment
//	[24: ]  raw WAL records (wal.go layout), ending at a commit marker
//
// Invariants the pager maintains:
//
//   - a segment is only ever cut from the committed prefix of the live
//     log, at a commit boundary, and the live log is only rewound
//     after the segment is durably synced — so the archive never has a
//     gap: concatenated in sequence order, segment records carry dense
//     LSNs (duplicates are possible after a crash between archiving and
//     the next commit, and replay skips them; see replayArchive);
//   - an archive append failure never fails the primary: the checkpoint
//     is skipped (the committed log stays live and is re-archived by a
//     later checkpoint) and store.wal.archive_errors counts the fault;
//   - retention is bounded by a byte budget: oldest segments are pruned
//     first, the newest is never pruned. Pruning forfeits the ability
//     to restore to the pruned LSNs; it never affects the live store.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
)

const (
	archiveMagic   = 0xA9C417E0
	archiveVersion = 1
	archiveHdrSize = 24
	// ArchiveSuffix names archive segment files.
	ArchiveSuffix = ".walseg"
)

// errArchive wraps archive-path I/O faults so checkpoint callers can
// swallow them without masking page-file faults.
var errArchive = errors.New("store: wal archive fault")

// archSeg is one on-disk segment as the archiver tracks it.
type archSeg struct {
	name    string
	size    int64
	seq     uint64
	lastLSN uint64
}

// archiver manages the segment directory for one pager.
type archiver struct {
	fsys    ArchiveFS
	dir     string
	budget  int64 // max total bytes across segments; 0 = unlimited
	nextSeq uint64
	segs    []archSeg // ascending seq

	segments atomic.Uint64 // segments written (cumulative)
	abytes   atomic.Uint64 // bytes archived (cumulative)
	pruned   atomic.Uint64 // segments pruned
	faults   atomic.Uint64 // swallowed archive-path errors
}

func segName(dir string, seq uint64) string {
	return fmt.Sprintf("%s/%016d%s", dir, seq, ArchiveSuffix)
}

// openArchiver scans dir, validating the newest segment (the only one a
// crashed append can have left torn) and removing it if incomplete —
// safe, because the live log is rewound only after a segment is
// durable, so an incomplete segment's records are still in the log and
// will be re-archived.
func openArchiver(fsys ArchiveFS, dir string, budget int64) (*archiver, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, err
	}
	a := &archiver{fsys: fsys, dir: dir, budget: budget, nextSeq: 1}
	var segNames []string
	for _, name := range names {
		if strings.HasSuffix(name, ArchiveSuffix) {
			segNames = append(segNames, name)
		}
	}
	for i, name := range segNames {
		seg, err := readSegHeader(fsys, name)
		if err != nil {
			// Appends always target the highest sequence number, and names
			// are zero-padded, so only the lexicographically last segment
			// can be a crashed append whose header never reached the disk.
			// Its records are still in the live log (the log is rewound
			// only after a segment syncs), so dropping it loses nothing.
			if i == len(segNames)-1 {
				if rerr := fsys.Remove(name); rerr != nil {
					return nil, rerr
				}
				continue
			}
			return nil, fmt.Errorf("store: archive segment %s: %w", name, err)
		}
		a.segs = append(a.segs, seg)
	}
	sort.Slice(a.segs, func(i, j int) bool { return a.segs[i].seq < a.segs[j].seq })
	if n := len(a.segs); n > 0 {
		last := a.segs[n-1]
		if ok, err := segComplete(fsys, last); err != nil {
			return nil, err
		} else if !ok {
			if err := fsys.Remove(last.name); err != nil {
				return nil, err
			}
			a.segs = a.segs[:n-1]
		}
	}
	if n := len(a.segs); n > 0 {
		a.nextSeq = a.segs[n-1].seq + 1
	}
	return a, nil
}

func readSegHeader(fsys ArchiveFS, name string) (archSeg, error) {
	f, err := fsys.OpenFile(name)
	if err != nil {
		return archSeg{}, err
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return archSeg{}, err
	}
	var hdr [archiveHdrSize]byte
	if sz < archiveHdrSize {
		return archSeg{}, errors.New("short header")
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return archSeg{}, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != archiveMagic {
		return archSeg{}, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != archiveVersion {
		return archSeg{}, fmt.Errorf("unsupported version %d", v)
	}
	return archSeg{
		name:    name,
		size:    sz,
		seq:     binary.LittleEndian.Uint64(hdr[8:16]),
		lastLSN: binary.LittleEndian.Uint64(hdr[16:24]),
	}, nil
}

// segComplete reports whether the segment's record body parses cleanly
// through a commit marker carrying the header's lastLSN.
func segComplete(fsys ArchiveFS, seg archSeg) (bool, error) {
	body, err := readSegBody(fsys, seg)
	if err != nil {
		return false, err
	}
	var lastCommit uint64
	consumed := scanRecords(body, func(kind byte, lsn uint64, id PageID, data []byte) bool {
		if kind == walCommit {
			lastCommit = lsn
		}
		return true
	})
	return consumed == len(body) && lastCommit == seg.lastLSN, nil
}

func readSegBody(fsys ArchiveFS, seg archSeg) ([]byte, error) {
	f, err := fsys.OpenFile(seg.name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	body := make([]byte, seg.size-archiveHdrSize)
	if _, err := f.ReadAt(body, archiveHdrSize); err != nil && err != io.EOF {
		return nil, err
	}
	return body, nil
}

// append writes records (a committed log prefix ending at a commit
// marker with LSN lastLSN) as the next segment: header + body + one
// sync. Only after the sync succeeds is the segment registered and the
// budget enforced.
func (a *archiver) append(records []byte, lastLSN uint64) error {
	if len(records) == 0 {
		return nil
	}
	seq := a.nextSeq
	name := segName(a.dir, seq)
	f, err := a.fsys.OpenFile(name)
	if err != nil {
		return fmt.Errorf("%w: %v", errArchive, err)
	}
	buf := make([]byte, archiveHdrSize+len(records))
	binary.LittleEndian.PutUint32(buf[0:4], archiveMagic)
	binary.LittleEndian.PutUint32(buf[4:8], archiveVersion)
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	binary.LittleEndian.PutUint64(buf[16:24], lastLSN)
	copy(buf[archiveHdrSize:], records)
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", errArchive, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", errArchive, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%w: %v", errArchive, err)
	}
	a.nextSeq = seq + 1
	a.segs = append(a.segs, archSeg{name: name, size: int64(len(buf)), seq: seq, lastLSN: lastLSN})
	a.segments.Add(1)
	a.abytes.Add(uint64(len(buf)))
	a.prune()
	return nil
}

// prune removes oldest segments while the directory exceeds the byte
// budget, never touching the newest. A failed removal is swallowed
// (counted as a fault): retention is advisory, correctness never
// depends on pruning succeeding.
func (a *archiver) prune() {
	if a.budget <= 0 {
		return
	}
	total := int64(0)
	for _, s := range a.segs {
		total += s.size
	}
	for total > a.budget && len(a.segs) > 1 {
		victim := a.segs[0]
		if err := a.fsys.Remove(victim.name); err != nil {
			a.faults.Add(1)
			return
		}
		total -= victim.size
		a.segs = a.segs[1:]
		a.pruned.Add(1)
	}
}

// replayArchive scans the archive segments in sequence order, applying
// committed page images up to (and including) the transaction that
// committed at targetLSN; targetLSN 0 means "everything archived".
// startLSN is the LSN the caller's base image is already consistent at:
// records at or below it are skipped as duplicates (re-archiving after
// a crash legitimately produces them), and from there the applied LSNs
// must be dense — a gap means missing history and is a hard error, as
// is a targetLSN that does not match an archived commit boundary.
//
// apply is called once per promoted page image, in commit order.
func replayArchive(fsys ArchiveFS, dir string, startLSN, targetLSN uint64, apply func(id PageID, lsn uint64, img []byte) error) (lastLSN uint64, err error) {
	names, err := fsys.List(dir)
	if err != nil {
		return 0, err
	}
	var segNames []string
	for _, name := range names {
		if strings.HasSuffix(name, ArchiveSuffix) {
			segNames = append(segNames, name)
		}
	}
	var segs []archSeg
	for i, name := range segNames {
		seg, err := readSegHeader(fsys, name)
		if err != nil {
			// Only the newest segment (highest name, see openArchiver) can
			// be a crashed append; everything durably archived precedes it.
			if i == len(segNames)-1 {
				continue
			}
			return 0, fmt.Errorf("store: archive segment %s: %w", name, err)
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	maxSeen := startLSN
	lastLSN = startLSN
	type pendingImg struct {
		id  PageID
		img []byte
	}
	var pending []pendingImg
	done := false
	for segIdx, seg := range segs {
		if seg.lastLSN <= startLSN {
			continue // entirely covered by the base image
		}
		body, err := readSegBody(fsys, seg)
		if err != nil {
			return 0, err
		}
		var scanErr error
		consumed := scanRecords(body, func(kind byte, lsn uint64, id PageID, data []byte) bool {
			if lsn <= maxSeen {
				return true // duplicate from re-archiving; already applied
			}
			if lsn != maxSeen+1 {
				scanErr = fmt.Errorf("store: archive gap: LSN %d follows %d in %s", lsn, maxSeen, seg.name)
				return false
			}
			maxSeen = lsn
			if kind == walPage {
				img := make([]byte, PageSize)
				copy(img, data)
				pending = append(pending, pendingImg{id: id, img: img})
				return true
			}
			// Commit marker: promote the transaction if it is within the
			// target, otherwise stop — markers are the only consistent
			// stopping points.
			if targetLSN != 0 && lsn > targetLSN {
				done = true
				return false
			}
			for _, p := range pending {
				if scanErr = apply(p.id, lsn, p.img); scanErr != nil {
					return false
				}
			}
			pending = pending[:0]
			lastLSN = lsn
			if targetLSN != 0 && lsn == targetLSN {
				done = true
				return false
			}
			return true
		})
		if scanErr != nil {
			return 0, scanErr
		}
		if done {
			break
		}
		if consumed != len(body) {
			// A torn body is legitimate only in the newest segment (a
			// crashed append): its valid prefix was applied above and any
			// unpromoted pages are discarded at the final target check.
			if segIdx == len(segs)-1 {
				break
			}
			return 0, fmt.Errorf("store: archive segment %s: torn or corrupt record at offset %d", seg.name, consumed)
		}
	}
	if targetLSN != 0 && lastLSN != targetLSN {
		return 0, fmt.Errorf("store: target LSN %d is not an archived commit boundary (archive reaches %d)", targetLSN, lastLSN)
	}
	return lastLSN, nil
}
