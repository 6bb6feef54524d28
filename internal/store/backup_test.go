package store_test

// Online backup, WAL archiving and point-in-time restore, proven under
// the deterministic crash/fault harness: a backup taken while writers
// keep committing restores to an exact transaction boundary; crashes
// at every durability operation leave the primary recoverable and any
// completed backup restorable; injected archive-path faults fail the
// backup cleanly without degrading the primary; and restore rejects
// every torn or corrupt stream loudly.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/store/simfs"
)

const (
	bkPerBatch    = 4
	bkBaseBatches = 3 // committed before the backup starts
	bkLiveBatches = 4 // committed while the backup is copying
)

func bkRecord(n int) []byte { return []byte(fmt.Sprintf("backup-record-%03d", n)) }

// bkState is one recorded commit boundary: the LSN the store reported
// after a flush and the number of batches durable at it.
type bkState struct {
	lsn     uint64
	batches int
}

// bkOpen opens the primary with archiving on and a low checkpoint
// threshold, so the run cuts several archive segments.
func bkOpen(fsys store.FS) (*store.Store, error) {
	return store.Open(fsys, "kb", store.Options{
		PoolPages:       32,
		CheckpointBytes: 24 << 10,
		ArchiveDir:      "arch",
	})
}

// bkSetup creates the heap the workload writes into and records its
// root in the header.
func bkSetup(st *store.Store) (*store.Heap, error) {
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		return nil, err
	}
	if err := st.SetMeta("heap.root", uint64(h.Root())); err != nil {
		return nil, err
	}
	return h, nil
}

// bkCommitBatch appends one batch of records, stamps the batch counter
// into the header, flushes, and returns the commit boundary reached.
func bkCommitBatch(st *store.Store, h *store.Heap, batch int) (bkState, error) {
	for i := 0; i < bkPerBatch; i++ {
		if _, err := h.Insert(bkRecord((batch-1)*bkPerBatch + i)); err != nil {
			return bkState{}, err
		}
	}
	if err := st.SetMeta("bk.batches", uint64(batch)); err != nil {
		return bkState{}, err
	}
	if err := st.Flush(); err != nil {
		return bkState{}, err
	}
	return bkState{lsn: st.LSN(), batches: batch}, nil
}

// bkScenario runs the full online-backup workload: base batches, then
// a backup whose page copies are interleaved with live committing
// batches, then Finish. It returns the recorded commit boundaries, the
// backup stream and its info. Deterministic: every run performs the
// same operation sequence, so the crash matrix can address individual
// durability operations.
func bkScenario(fsys store.FS) (states []bkState, stream *bytes.Buffer, info store.BackupInfo, err error) {
	st, err := bkOpen(fsys)
	if err != nil {
		return nil, nil, info, err
	}
	defer st.Close()
	h, err := bkSetup(st)
	if err != nil {
		return nil, nil, info, err
	}
	batch := 0
	for b := 0; b < bkBaseBatches; b++ {
		batch++
		s, err := bkCommitBatch(st, h, batch)
		if err != nil {
			return states, nil, info, err
		}
		states = append(states, s)
	}
	stream = &bytes.Buffer{}
	bk, err := st.StartBackup(stream)
	if err != nil {
		return states, nil, info, err
	}
	for done := false; !done; {
		done, err = bk.CopyPages(2)
		if err != nil {
			bk.Abort()
			return states, nil, info, err
		}
		if batch < bkBaseBatches+bkLiveBatches {
			batch++
			s, err := bkCommitBatch(st, h, batch)
			if err != nil {
				bk.Abort()
				return states, nil, info, err
			}
			states = append(states, s)
		}
	}
	for batch < bkBaseBatches+bkLiveBatches {
		batch++
		s, err := bkCommitBatch(st, h, batch)
		if err != nil {
			bk.Abort()
			return states, nil, info, err
		}
		states = append(states, s)
	}
	info, err = bk.Finish()
	if err != nil {
		return states, nil, store.BackupInfo{}, err
	}
	return states, stream, info, st.Close()
}

// verifyRestored opens the restored file and checks it holds exactly
// the records committed at the given boundary — the batch counter in
// the header must agree, the heap must hold precisely that prefix, and
// every page must read back checksum-clean.
func verifyRestored(t *testing.T, fsys store.FS, path string, wantBatches int, label string) {
	t.Helper()
	st, err := store.Open(fsys, path, store.Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("%s: reopen restored store: %v", label, err)
	}
	defer st.Close()
	if v, _ := st.GetMeta("bk.batches"); int(v) != wantBatches {
		t.Fatalf("%s: restored batch counter %d, want %d", label, v, wantBatches)
	}
	root, ok := st.GetMeta("heap.root")
	if !ok {
		t.Fatalf("%s: heap root lost", label)
	}
	// CRC sweep: every allocated page must read clean.
	pg := st.Pool().Pager()
	buf := make([]byte, store.PageSize)
	for id := store.PageID(1); id < pg.NumPages(); id++ {
		if err := pg.ReadPage(id, buf); err != nil {
			t.Fatalf("%s: CRC sweep: page %d: %v", label, id, err)
		}
	}
	h := store.OpenHeap(st.Pool(), store.PageID(root))
	got := map[string]int{}
	if err := h.Scan(func(_ store.RID, rec []byte) (bool, error) {
		got[string(rec)]++
		return true, nil
	}); err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	want := wantBatches * bkPerBatch
	if len(got) != want {
		t.Fatalf("%s: restored %d distinct records, want %d", label, len(got), want)
	}
	for i := 0; i < want; i++ {
		if got[string(bkRecord(i))] != 1 {
			t.Fatalf("%s: record %d missing or duplicated after restore", label, i)
		}
	}
}

// batchesAt maps a restore-target LSN to the batch count committed at
// it: the latest recorded boundary at or below the LSN.
func batchesAt(states []bkState, lsn uint64) int {
	n := 0
	for _, s := range states {
		if s.lsn <= lsn {
			n = s.batches
		}
	}
	return n
}

// TestBackupUnderWritesRestoresEveryBoundary drives a backup with
// batches committing between page copies, then restores it (a) to the
// backup-end LSN, (b) to the latest archived state, (c) point-in-time
// to every committed boundary the run recorded, (d) at the image's own
// start LSN — each must reproduce exactly the records committed at
// that LSN.
func TestBackupUnderWritesRestoresEveryBoundary(t *testing.T) {
	fsys := simfs.New(nil)
	states, stream, info, err := bkScenario(fsys)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if info.EndLSN <= info.StartLSN {
		t.Fatalf("no batches landed during the backup window: start %d end %d", info.StartLSN, info.EndLSN)
	}
	segs, err := fsys.List("arch")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("workload cut %d archive segments, want >= 2 (checkpoint threshold too high?)", len(segs))
	}

	restore := func(target uint64, path string) error {
		return store.RestoreFS(fsys, path, bytes.NewReader(stream.Bytes()), "arch", target)
	}
	if err := restore(info.EndLSN, "r-end"); err != nil {
		t.Fatalf("restore at end LSN %d: %v", info.EndLSN, err)
	}
	verifyRestored(t, fsys, "r-end", batchesAt(states, info.EndLSN), "end LSN")
	if err := restore(0, "r-latest"); err != nil {
		t.Fatalf("restore latest: %v", err)
	}
	verifyRestored(t, fsys, "r-latest", bkBaseBatches+bkLiveBatches, "latest")
	if err := restore(info.StartLSN, "r-start"); err != nil {
		t.Fatalf("restore at start LSN %d: %v", info.StartLSN, err)
	}
	verifyRestored(t, fsys, "r-start", batchesAt(states, info.StartLSN), "start LSN")
	for i, s := range states {
		if s.lsn < info.StartLSN {
			continue // predates the image; covered by the error case below
		}
		path := fmt.Sprintf("r-pitr-%d", i)
		if err := restore(s.lsn, path); err != nil {
			t.Fatalf("PITR to boundary %d (LSN %d): %v", i, s.lsn, err)
		}
		verifyRestored(t, fsys, path, s.batches, fmt.Sprintf("PITR boundary %d", i))
	}

	// Invalid targets fail loudly: an LSN that is not a commit boundary
	// (EndLSN-1 is the header-page record under the end marker), and an
	// LSN predating the image.
	if err := restore(info.EndLSN-1, "r-bad"); err == nil {
		t.Fatal("restore to a non-boundary LSN succeeded")
	}
	if pre := states[0].lsn; pre < info.StartLSN {
		if err := restore(pre, "r-pre"); err == nil {
			t.Fatal("restore to an LSN predating the image succeeded")
		}
	}
}

// TestBackupCrashMatrix kills the backup-under-writers scenario at
// every durability operation under every torn/kept/dropped variant.
// After each crash the primary must recover to exactly the committed
// prefix — never losing a batch whose flush reported success — and if
// the backup had completed before the crash its stream must still
// restore against the harvested archive.
func TestBackupCrashMatrix(t *testing.T) {
	probe := simfs.NewCtl(-1)
	if _, _, _, err := bkScenario(simfs.New(probe)); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("probe run produced only %d durability ops; harness mis-wired", total)
	}
	for k := 0; k < total; k++ {
		for _, variant := range simfs.Variants {
			fsys := simfs.New(simfs.NewCtl(k))
			states, stream, info, err := bkScenario(fsys)
			if err == nil {
				t.Fatalf("crash scheduled at op %d/%d never surfaced", k, total)
			}
			label := fmt.Sprintf("crash at op %d/%d, %s", k, total, variant)
			after := fsys.Harvest(variant)
			st, err := bkOpen(after)
			if err != nil {
				t.Fatalf("%s: reopen primary: %v", label, err)
			}
			batches := 0
			if v, ok := st.GetMeta("bk.batches"); ok {
				batches = int(v)
			}
			// The recovered state must be a committed prefix: every batch
			// whose flush reported success is durable, and at most the
			// in-flight batch may additionally have survived.
			maxSeen := 0
			for _, s := range states {
				if s.batches > maxSeen {
					maxSeen = s.batches
				}
			}
			if batches < maxSeen {
				t.Fatalf("%s: recovered %d batches, but %d had committed durably", label, batches, maxSeen)
			}
			if batches > maxSeen+1 {
				t.Fatalf("%s: recovered %d batches, but only %d ever committed", label, batches, maxSeen+1)
			}
			if root, ok := st.GetMeta("heap.root"); ok && batches > 0 {
				h := store.OpenHeap(st.Pool(), store.PageID(root))
				count := 0
				if err := h.Scan(func(_ store.RID, rec []byte) (bool, error) {
					count++
					return true, nil
				}); err != nil {
					t.Fatalf("%s: scan recovered heap: %v", label, err)
				}
				if count != batches*bkPerBatch {
					t.Fatalf("%s: recovered %d records for %d batches", label, count, batches)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("%s: close recovered primary: %v", label, err)
			}
			// A backup that completed before the crash is durable history:
			// it must still restore against the harvested archive.
			if info.Pages > 0 && stream != nil {
				if err := store.RestoreFS(after, "r-crash", bytes.NewReader(stream.Bytes()), "arch", info.EndLSN); err != nil {
					t.Fatalf("%s: restore completed backup: %v", label, err)
				}
				verifyRestored(t, after, "r-crash", batchesAt(states, info.EndLSN), label)
			}
		}
	}
}

// bkFaultWorkload is the fault-matrix scenario: batches, a mid-run
// backup, more batches, a final backup, restores of both. Unlike the
// crash matrix it keeps the live store in scope so it can assert, at
// the moment a transient fault surfaces, that the store did not
// degrade to read-only — and that retrying the failed step on the very
// same live store succeeds (the fault was one operation, not a wound).
func bkFaultWorkload(t *testing.T, fsys store.FS, label string) {
	st, err := bkOpen(fsys)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	h, err := bkSetup(st)
	if err != nil {
		t.Fatalf("%s: setup: %v", label, err)
	}
	flush := func(batch int) {
		for i := 0; i < bkPerBatch; i++ {
			if _, err := h.Insert(bkRecord((batch-1)*bkPerBatch + i)); err != nil {
				t.Fatalf("%s: batch %d insert: %v", label, batch, err)
			}
		}
		if err := st.SetMeta("bk.batches", uint64(batch)); err != nil {
			t.Fatalf("%s: batch %d meta: %v", label, batch, err)
		}
		if err := st.Flush(); err != nil {
			if st.ReadOnly() {
				t.Fatalf("%s: batch %d flush fault degraded the store to read-only: %v", label, batch, err)
			}
			if err2 := st.Flush(); err2 != nil {
				t.Fatalf("%s: batch %d flush failed past the injected fault: %v then %v", label, batch, err, err2)
			}
		}
	}
	backup := func(name string) (*bytes.Buffer, store.BackupInfo) {
		var buf bytes.Buffer
		info, err := st.Backup(&buf)
		if err != nil {
			if st.ReadOnly() {
				t.Fatalf("%s: %s backup fault degraded the store to read-only: %v", label, name, err)
			}
			buf.Reset()
			if info, err = st.Backup(&buf); err != nil {
				t.Fatalf("%s: %s backup failed past the injected fault: %v", label, name, err)
			}
		}
		return &buf, info
	}
	restore := func(name string, buf *bytes.Buffer, info store.BackupInfo, wantBatches int) {
		if err := store.RestoreFS(fsys, name, bytes.NewReader(buf.Bytes()), "arch", info.EndLSN); err != nil {
			if err2 := store.RestoreFS(fsys, name, bytes.NewReader(buf.Bytes()), "arch", info.EndLSN); err2 != nil {
				t.Fatalf("%s: restore %s failed past the injected fault: %v then %v", label, name, err, err2)
			}
		}
		verifyRestored(t, fsys, name, wantBatches, label+": "+name)
	}

	for b := 1; b <= 3; b++ {
		flush(b)
	}
	midBuf, midInfo := backup("mid")
	for b := 4; b <= 5; b++ {
		flush(b)
	}
	lateBuf, lateInfo := backup("late")
	if st.ReadOnly() {
		t.Fatalf("%s: store read-only at end of workload", label)
	}
	restore("r-mid", midBuf, midInfo, 3)
	restore("r-late", lateBuf, lateInfo, 5)
	_ = st.Close() // a close-time checkpoint may eat the fault; reopen proves health
	rst, err := bkOpen(fsys)
	if err != nil {
		t.Fatalf("%s: reopen after close: %v", label, err)
	}
	if v, _ := rst.GetMeta("bk.batches"); v != 5 {
		t.Fatalf("%s: primary lost batches across close: %d", label, v)
	}
	if err := rst.Close(); err != nil {
		t.Fatalf("%s: final close: %v", label, err)
	}
}

// TestBackupFaultMatrix injects a transient ENOSPC/EIO at every
// durability operation of the workload in turn. Whatever the fault
// hits — WAL commit, checkpoint fold, archive segment write, backup
// barrier, restore — the step either succeeds anyway (swallowed
// archive fault) or fails cleanly and succeeds on retry; the primary
// never degrades to read-only and never loses a committed batch.
func TestBackupFaultMatrix(t *testing.T) {
	probe := simfs.NewCtl(-1)
	bkFaultWorkload(t, simfs.New(probe), "probe")
	total := probe.Ops()
	if total < 30 {
		t.Fatalf("probe run produced only %d durability ops; harness mis-wired", total)
	}
	for _, errno := range []error{syscall.ENOSPC, syscall.EIO} {
		for k := 0; k < total; k++ {
			ctl := simfs.NewCtl(-1)
			ctl.FailAt(k, errno)
			bkFaultWorkload(t, simfs.New(ctl), fmt.Sprintf("fault %v at op %d/%d", errno, k, total))
		}
	}
}

// TestRestoreRejectsCorruptStream flips one byte at a time across a
// valid backup stream — header, frames, trailer, CRC — and requires
// every flip (and a truncation) to fail the restore loudly.
func TestRestoreRejectsCorruptStream(t *testing.T) {
	fsys := simfs.New(nil)
	_, stream, info, err := bkScenario(fsys)
	if err != nil {
		t.Fatal(err)
	}
	base := stream.Bytes()
	offsets := []int{0, 5, 13, 21, 20 + store.PageSize/2, len(base) - 10, len(base) - 3}
	for _, off := range offsets {
		img := append([]byte(nil), base...)
		img[off] ^= 0x20
		if err := store.RestoreFS(fsys, "r-x", bytes.NewReader(img), "arch", info.EndLSN); err == nil {
			t.Fatalf("restore accepted a stream with byte %d flipped", off)
		}
	}
	if err := store.RestoreFS(fsys, "r-x", bytes.NewReader(base[:len(base)-8]), "arch", info.EndLSN); err == nil {
		t.Fatal("restore accepted a truncated stream")
	}
	if err := store.RestoreFS(fsys, "r-x", bytes.NewReader(base[:len(base)/2]), "arch", info.EndLSN); err == nil {
		t.Fatal("restore accepted a half stream")
	}
}

// TestCheckpointBytesCutsSegments is the configurability check: a tiny
// Options.CheckpointBytes forces checkpoints (and hence archive
// segments) far more often than the same workload under a large one.
func TestCheckpointBytesCutsSegments(t *testing.T) {
	run := func(checkpointBytes int64) int {
		fsys := simfs.New(nil)
		st, err := store.Open(fsys, "kb", store.Options{
			PoolPages:       32,
			CheckpointBytes: checkpointBytes,
			ArchiveDir:      "arch",
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := bkSetup(st)
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= 6; b++ {
			if _, err := bkCommitBatch(st, h, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := fsys.List("arch")
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	tiny, large := run(4<<10), run(1<<30)
	if tiny < 3 {
		t.Fatalf("tiny checkpoint threshold cut only %d archive segments, want >= 3", tiny)
	}
	if large >= tiny {
		t.Fatalf("large threshold cut %d segments, tiny cut %d; threshold not effective", large, tiny)
	}
}

// TestArchiveBudgetPrunesOldest bounds the archive with a byte budget
// and checks old segments are pruned oldest-first, restores within the
// retained window still work, and a restore needing pruned history
// fails loudly instead of producing a silently incomplete state.
func TestArchiveBudgetPrunesOldest(t *testing.T) {
	fsys := simfs.New(nil)
	st, err := store.Open(fsys, "kb", store.Options{
		PoolPages:       32,
		CheckpointBytes: 8 << 10,
		ArchiveDir:      "arch",
		ArchiveBudget:   64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := bkSetup(st)
	if err != nil {
		t.Fatal(err)
	}
	// An early backup, then enough churn to blow the budget many times.
	if _, err := bkCommitBatch(st, h, 1); err != nil {
		t.Fatal(err)
	}
	var early bytes.Buffer
	if _, err := st.Backup(&early); err != nil {
		t.Fatal(err)
	}
	var midLSN uint64
	for b := 2; b <= 40; b++ {
		s, err := bkCommitBatch(st, h, b)
		if err != nil {
			t.Fatal(err)
		}
		if b == 6 {
			midLSN = s.lsn
		}
	}
	var late bytes.Buffer
	lateInfo, err := st.Backup(&late)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := fsys.List("arch")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no archive segments survive")
	}
	total := int64(0)
	for _, name := range segs {
		total += int64(len(fsys.Image(name)))
		if !strings.HasSuffix(name, store.ArchiveSuffix) {
			t.Fatalf("unexpected file in archive dir: %s", name)
		}
	}
	if total > (64<<10)+(32<<10) {
		t.Fatalf("archive holds %d bytes, budget 64KiB not enforced", total)
	}
	if strings.HasSuffix(segs[0], fmt.Sprintf("%016d%s", 1, store.ArchiveSuffix)) {
		t.Fatal("oldest segment was never pruned")
	}
	// The late backup restores; the early one needs pruned history.
	if err := store.RestoreFS(fsys, "r-late", bytes.NewReader(late.Bytes()), "arch", lateInfo.EndLSN); err != nil {
		t.Fatalf("restore within retained window: %v", err)
	}
	verifyRestored(t, fsys, "r-late", 40, "late backup")
	err = store.RestoreFS(fsys, "r-early", bytes.NewReader(early.Bytes()), "arch", midLSN)
	if err == nil {
		t.Fatal("restore through pruned history succeeded silently")
	}
	if !strings.Contains(err.Error(), "gap") && !strings.Contains(err.Error(), "boundary") {
		t.Fatalf("pruned-history restore failed with unexpected error: %v", err)
	}
}

// TestClearReadOnlyRecommits degrades the store to read-only with an
// injected commit fault — in all three flavors the commit-failure path
// has: the marker fsync fails but the cleanup truncation lands, the
// truncation itself fails (diverged log), or the truncation lands but
// its fsync fails (still diverged) — clears it, and requires a
// subsequent transaction to commit durably, with the archive staying
// gap-free across the repair so a fresh backup restores.
func TestClearReadOnlyRecommits(t *testing.T) {
	// Fault indices are relative to the op count just before Commit:
	// +0 is the marker write, +1 its fsync, +2 the cleanup truncate,
	// +3 the truncate's fsync.
	for name, faults := range map[string][]int{
		"fsync-fails":         {1},
		"diverged-truncate":   {1, 2},
		"diverged-trunc-sync": {1, 3},
	} {
		t.Run(name, func(t *testing.T) {
			ctl := simfs.NewCtl(-1)
			fsys := simfs.New(ctl)
			st, err := bkOpen(fsys)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			h, err := bkSetup(st)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bkCommitBatch(st, h, 1); err != nil {
				t.Fatal(err)
			}
			if err := st.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Insert([]byte("txn-record")); err != nil {
				t.Fatal(err)
			}
			k := ctl.Ops()
			for _, d := range faults {
				ctl.FailAt(k+d, syscall.ENOSPC)
			}
			if err := st.Commit(); err == nil {
				t.Fatal("faulted commit succeeded")
			}
			if !st.ReadOnly() {
				t.Fatal("failed commit did not degrade to read-only")
			}
			if err := st.Begin(); !errors.Is(err, store.ErrReadOnly) {
				t.Fatalf("read-only store accepted Begin: %v", err)
			}
			// The disk healed (the faults were one-shot); the operator
			// clears the degradation.
			if err := st.ClearReadOnly(); err != nil {
				t.Fatalf("ClearReadOnly on a healthy disk: %v", err)
			}
			if st.ReadOnly() {
				t.Fatal("store still read-only after ClearReadOnly")
			}
			// A fresh transaction commits durably again. The pool was
			// invalidated by the rollback, so reopen the heap handle.
			h2 := store.OpenHeap(st.Pool(), h.Root())
			if err := st.Begin(); err != nil {
				t.Fatalf("Begin after clear: %v", err)
			}
			if _, err := h2.Insert([]byte("post-clear-record")); err != nil {
				t.Fatal(err)
			}
			if err := st.SetMeta("bk.batches", 2); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(); err != nil {
				t.Fatalf("commit after clear: %v", err)
			}
			// And the archive stayed gap-free: a fresh backup restores.
			var buf bytes.Buffer
			info, err := st.Backup(&buf)
			if err != nil {
				t.Fatalf("backup after clear: %v", err)
			}
			if err := store.RestoreFS(fsys, "r-clear", bytes.NewReader(buf.Bytes()), "arch", info.EndLSN); err != nil {
				t.Fatalf("restore after clear: %v", err)
			}
			rst, err := store.Open(fsys, "r-clear", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer rst.Close()
			if v, _ := rst.GetMeta("bk.batches"); v != 2 {
				t.Fatalf("restored batch counter %d, want 2", v)
			}
		})
	}
}

// TestClearReadOnlyStillFaulty keeps the disk broken: ClearReadOnly
// must refuse and leave the store read-only.
func TestClearReadOnlyStillFaulty(t *testing.T) {
	ctl := simfs.NewCtl(-1)
	fsys := simfs.New(ctl)
	st, err := bkOpen(fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h, err := bkSetup(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bkCommitBatch(st, h, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert([]byte("txn-record")); err != nil {
		t.Fatal(err)
	}
	// Every durability operation from here on fails.
	base := ctl.Ops()
	for k := base; k < base+200; k++ {
		ctl.FailAt(k, syscall.EIO)
	}
	if err := st.Commit(); err == nil {
		t.Fatal("faulted commit succeeded")
	}
	if !st.ReadOnly() {
		t.Fatal("failed commit did not degrade to read-only")
	}
	if err := st.ClearReadOnly(); err == nil {
		t.Fatal("ClearReadOnly succeeded against a still-broken disk")
	}
	if !st.ReadOnly() {
		t.Fatal("store writable although the repair failed")
	}
}
