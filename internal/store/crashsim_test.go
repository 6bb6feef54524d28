package store_test

// Deterministic crash injection over the simfs filesystem (see
// internal/store/simfs): kill the "process" at every durability
// operation, materialize each possible on-disk state — unsynced writes
// dropped, kept, or kept with the in-flight write torn in half —
// reopen the store from each image, and require that recovery yields
// exactly the committed state with every integrity check passing.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/edb"
	"repro/internal/store"
	"repro/internal/store/simfs"
)

// --- workload ---------------------------------------------------------------

const (
	crashBatches  = 5
	crashPerBatch = 6
	crashProc     = "route"
	crashArity    = 2
)

// crashBlob is clause n's stored payload; every fifth clause overflows
// onto an overflow chain.
func crashBlob(n int) []byte {
	if n%5 == 4 {
		b := make([]byte, 3*store.PageSize+17)
		for i := range b {
			b[i] = byte(n + i)
		}
		return b
	}
	return []byte(fmt.Sprintf("clause-%d-relocatable-code", n))
}

// crashKeys gives every third clause a variable argument (a wildcard
// index entry); the rest are ground (one index entry per argument), with
// the first attribute drawn from four atoms so entries share keys.
func crashKeys(n int) []edb.ArgKey {
	if n%3 == 0 {
		return []edb.ArgKey{edb.WildKey(), edb.IntKey(int64(n))}
	}
	return []edb.ArgKey{edb.AtomKey(fmt.Sprintf("a%d", n%4)), edb.IntKey(int64(n))}
}

// runCrashWorkload builds an EDB exercising every storage structure —
// procedure heap, clause heap with overflow chains, the clause index
// B+tree with argument and wildcard entries — committing in batches. Before each commit
// the batch number about to become durable is written into the store
// header, so a recovered image self-describes how much of the workload
// it must contain. A small pool forces steady eviction traffic and a
// low checkpoint threshold forces mid-run checkpoints, putting crash
// points inside both the commit and the checkpoint paths.
func runCrashWorkload(fsys store.FS) error {
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 32, CheckpointBytes: 96 << 10})
	if err != nil {
		return err
	}
	db, err := edb.Open(st)
	if err != nil {
		return err
	}
	p, err := db.EnsureProc(crashProc, crashArity, edb.FormCode)
	if err != nil {
		return err
	}
	for b := 0; b < crashBatches; b++ {
		for i := 0; i < crashPerBatch; i++ {
			n := b*crashPerBatch + i
			if _, err := db.StoreClause(p, crashKeys(n), crashBlob(n)); err != nil {
				return err
			}
		}
		if err := st.SetMeta("crash.batches", uint64(b+1)); err != nil {
			return err
		}
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return st.Close()
}

// verifyRecovered reopens a harvested image and checks the recovered
// store is exactly some committed prefix of the workload: the batch
// counter in the header says which one, every structure passes its
// integrity check, and precisely that prefix's clauses are readable
// with intact payloads.
func verifyRecovered(t *testing.T, fsys store.FS, label string) {
	t.Helper()
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer st.Close()
	batches := 0
	if v, ok := st.GetMeta("crash.batches"); ok {
		batches = int(v)
	}
	db, err := edb.Open(st)
	if err != nil {
		t.Fatalf("%s: edb open (%d batches durable): %v", label, batches, err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("%s: integrity (%d batches durable): %v", label, batches, err)
	}
	p := db.Proc(crashProc, crashArity)
	want := batches * crashPerBatch
	if want == 0 {
		if p != nil && p.ClauseCount != 0 {
			t.Fatalf("%s: no batch committed, yet %d clauses present", label, p.ClauseCount)
		}
		return
	}
	if p == nil {
		t.Fatalf("%s: %d batches durable but procedure missing", label, batches)
	}
	if p.ClauseCount != want {
		t.Fatalf("%s: descriptor records %d clauses, want %d (%d batches)", label, p.ClauseCount, want, batches)
	}
	scs, err := db.AllClauses(p)
	if err != nil {
		t.Fatalf("%s: AllClauses: %v", label, err)
	}
	if len(scs) != want {
		t.Fatalf("%s: %d clauses recovered, want %d", label, len(scs), want)
	}
	for _, sc := range scs {
		if !bytes.Equal(sc.Blob, crashBlob(int(sc.ClauseID))) {
			t.Fatalf("%s: clause %d payload corrupted by recovery", label, sc.ClauseID)
		}
	}
	// One indexed retrieval, so the argument-entry read path is exercised
	// too, not just the scan.
	n := want - 1
	if n%3 == 0 {
		n--
	}
	got, err := db.Retrieve(p, crashKeys(n))
	if err != nil {
		t.Fatalf("%s: retrieve clause %d: %v", label, n, err)
	}
	found := false
	for _, sc := range got {
		found = found || int(sc.ClauseID) == n
	}
	if !found {
		t.Fatalf("%s: clause %d not retrievable through the index", label, n)
	}
}

// TestCrashRecoveryMatrix kills the workload at every durability
// operation, under every torn/kept/dropped interpretation of the
// unsynced tail, and requires clean recovery each time.
func TestCrashRecoveryMatrix(t *testing.T) {
	ctl := simfs.NewCtl(-1)
	clean := simfs.New(ctl)
	if err := runCrashWorkload(clean); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := ctl.Ops()
	if total < 20 {
		t.Fatalf("clean run produced only %d durability ops; harness mis-wired", total)
	}
	verifyRecovered(t, clean.Harvest(simfs.Keep), "clean close")

	for k := 0; k < total; k++ {
		for _, variant := range simfs.Variants {
			fsys := simfs.New(simfs.NewCtl(k))
			if err := runCrashWorkload(fsys); err == nil {
				t.Fatalf("crash scheduled at op %d/%d never surfaced", k, total)
			}
			verifyRecovered(t, fsys.Harvest(variant), fmt.Sprintf("crash at op %d/%d, %s", k, total, variant))
		}
	}
}

// TestRecoveryIsIdempotent crashes a second time in the middle of
// recovery itself: replaying the log is restartable, so the store must
// still come up intact afterwards.
func TestRecoveryIsIdempotent(t *testing.T) {
	// Crash just before the final commit's fsync so the reopened store
	// has work to replay, then crash recovery at each of its own ops.
	crashed := func() *simfs.FS {
		probe := simfs.NewCtl(-1)
		if err := runCrashWorkload(simfs.New(probe)); err != nil {
			t.Fatalf("probe run: %v", err)
		}
		ctl := simfs.NewCtl(probe.Ops() - 2)
		fs2 := simfs.New(ctl)
		if err := runCrashWorkload(fs2); err == nil {
			t.Fatal("late crash never surfaced")
		}
		return fs2.Harvest(simfs.Keep)
	}()
	for k := 0; ; k++ {
		ctl := simfs.NewCtl(k)
		again := crashed.Clone(ctl)
		st, err := store.Open(again, "kb", store.Options{PoolPages: 64})
		if err == nil {
			st.Close()
			if k == 0 {
				t.Fatal("recovery performed no durability ops; idempotence untested")
			}
			break // recovery needs fewer than k ops; matrix exhausted
		}
		verifyRecovered(t, again.Harvest(simfs.Drop), fmt.Sprintf("recovery crash at op %d (drop)", k))
		verifyRecovered(t, again.Harvest(simfs.Torn), fmt.Sprintf("recovery crash at op %d (torn)", k))
	}
}

// TestChecksumDetectsByteFlips closes a store cleanly, then flips
// single bytes across every non-header frame of the raw image — data
// start, middle, end, and both trailer words — and requires each flip
// to surface as ErrChecksum (never a panic, never silent) on the next
// read of that page.
func TestChecksumDetectsByteFlips(t *testing.T) {
	fsys := simfs.New(nil)
	if err := runCrashWorkload(fsys); err != nil {
		t.Fatal(err)
	}
	base := fsys.Image("kb")
	nFrames := len(base) / store.DiskFrameSize
	if nFrames < 10 {
		t.Fatalf("store image holds only %d frames; workload too small", nFrames)
	}
	offsets := []int{0, 1, store.PageSize / 2, store.PageSize - 1, store.PageSize, store.DiskFrameSize - 1}
	for frame := 1; frame < nFrames; frame++ {
		for _, off := range offsets {
			pos := frame*store.DiskFrameSize + off
			img := append([]byte(nil), base...)
			img[pos] ^= 0x40
			fs2 := simfs.New(nil)
			fs2.SetImage("kb", img)
			st, err := store.Open(fs2, "kb", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatalf("frame %d off %d: reopen: %v", frame, off, err)
			}
			buf := make([]byte, store.PageSize)
			err = st.Pool().Pager().ReadPage(store.PageID(frame), buf)
			st.Close()
			if !errors.Is(err, store.ErrChecksum) {
				t.Fatalf("frame %d off %d: flipped byte read as %v, want ErrChecksum", frame, off, err)
			}
		}
	}
}

// TestCheckCatchesSeededCorruption corrupts a live structure in ways a
// checksum cannot see (the page is internally consistent bytes, just
// wrong) and requires the structural verifiers to object.
func TestCheckCatchesSeededCorruption(t *testing.T) {
	fsys := simfs.New(nil)
	if err := runCrashWorkload(fsys); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := edb.Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("pristine store fails check: %v", err)
	}
	// Deleting a clause via the heap alone desynchronizes the indexes
	// from the descriptor count — exactly what Check must notice.
	p := db.Proc(crashProc, crashArity)
	scs, err := db.AllClauses(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteClause(p, scs[1]); err != nil {
		t.Fatal(err)
	}
	p.ClauseCount++ // descriptor now lies about the count
	if err := db.Check(); err == nil {
		t.Fatal("check accepted a descriptor/index mismatch")
	}
	p.ClauseCount--
	if err := db.Check(); err != nil {
		t.Fatalf("restored store fails check: %v", err)
	}
}

// --- recycled log -----------------------------------------------------------

// recycleBatches are the heap records each commit of the recycled-log
// workload inserts, one page each. With recycleCheckpoint the first four
// commits are generation 1 of the log and the last three generation 2,
// which a checkpoint rewinds to offset 0: generation 2 opens with a
// larger commit than generation 1 did, is shorter overall, and so ends
// mid-record of generation 1, whose tail stays in the file.
var recycleBatches = []int{1, 4, 4, 4, 6, 1, 1}

const (
	recycleCheckpoint = 80 << 10
	walPageRec        = 17 + store.PageSize // a page record; a commit marker is 17 bytes
)

// recycleSize is commit b's record count; a commit past the workload,
// made after recovery, inserts one.
func recycleSize(b int) int {
	if b < len(recycleBatches) {
		return recycleBatches[b]
	}
	return 1
}

func recycleRec(batch, i int) []byte {
	rec := bytes.Repeat([]byte{byte(batch*16 + i)}, 3000)
	copy(rec, fmt.Sprintf("batch %d rec %d", batch, i))
	return rec
}

// recycleCommit inserts commit b's records and makes them durable.
func recycleCommit(st *store.Store, h *store.Heap, b int) error {
	for i := 0; i < recycleSize(b); i++ {
		if _, err := h.Insert(recycleRec(b, i)); err != nil {
			return err
		}
	}
	if err := st.SetMeta("recycle.batches", uint64(b+1)); err != nil {
		return err
	}
	return st.Flush()
}

// recycleRun is what one run of the workload reports: how many commits
// were acknowledged, and per acknowledged commit the log bytes it wrote
// and whether it checkpointed.
type recycleRun struct {
	acked   int
	bytes   []uint64
	rewound []bool
}

func runRecycleWorkload(fsys store.FS) (recycleRun, error) {
	var run recycleRun
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 16, CheckpointBytes: recycleCheckpoint})
	if err != nil {
		return run, err
	}
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		return run, err
	}
	if err := st.SetMeta("recycle.heap", uint64(h.Root())); err != nil {
		return run, err
	}
	walStat := func(name string) uint64 { return st.Obs().Snapshot()[name].(uint64) }
	for b := range recycleBatches {
		before, cps := walStat("store.wal.bytes"), walStat("store.wal.checkpoints")
		if err := recycleCommit(st, h, b); err != nil {
			return run, err
		}
		run.acked++
		run.bytes = append(run.bytes, walStat("store.wal.bytes")-before)
		run.rewound = append(run.rewound, walStat("store.wal.checkpoints") > cps)
	}
	return run, st.Close()
}

// verifyRecycled reopens an image and returns how many commits it
// holds, failing unless the heap holds exactly those commits' records.
func verifyRecycled(t *testing.T, fsys store.FS, label string) int {
	t.Helper()
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 16})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer st.Close()
	batches, _ := st.GetMeta("recycle.batches")
	want := map[string]bool{}
	for b := 0; b < int(batches); b++ {
		for i := 0; i < recycleSize(b); i++ {
			want[string(recycleRec(b, i))] = true
		}
	}
	got := 0
	if root, ok := st.GetMeta("recycle.heap"); ok {
		err = store.OpenHeap(st.Pool(), store.PageID(root)).Scan(func(_ store.RID, rec []byte) (bool, error) {
			if !want[string(rec)] {
				return false, fmt.Errorf("record %.16q is not in the first %d commits", rec, batches)
			}
			got++
			return true, nil
		})
	}
	if err != nil || got != len(want) {
		t.Fatalf("%s: %d commits durable, heap holds %d of %d records (%v)", label, batches, got, len(want), err)
	}
	return int(batches)
}

// TestRecycledLogRecovery crashes the recycled-log workload at every
// durability op, generation 2's included, under every variant, and
// requires recovery to hold exactly the acknowledged commits, plus the
// one in flight if its write reached the disk whole. It also persists
// each in-flight log write without its first blocks, as a disk may, so
// that replay meets generation 1's head where generation 2's should be.
// Each recovered store must then take one more commit that survives a
// crash right after it. A clean close leaves an empty log, and the
// reopen after it discards nothing.
func TestRecycledLogRecovery(t *testing.T) {
	ctl := simfs.NewCtl(-1)
	clean := simfs.New(ctl)
	run, err := runRecycleWorkload(clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	// The shape the test relies on: one checkpoint, after commit 4, and
	// generation 2's end inside one of generation 1's records.
	if fmt.Sprint(run.rewound) != "[false false false true false false false]" {
		t.Fatalf("checkpoints after commits %v, want after the 4th only", run.rewound)
	}
	gen1, gen2 := run.bytes[:4], run.bytes[4:]
	bounds, end1 := map[uint64]bool{}, uint64(0)
	for _, n := range gen1 {
		for rec := uint64(0); rec < n/walPageRec; rec++ {
			end1 += walPageRec
			bounds[end1] = true
		}
		end1 += n % walPageRec
		bounds[end1] = true
	}
	if end2 := gen2[0] + gen2[1] + gen2[2]; gen2[0] <= gen1[0] || end2 >= end1 || bounds[end2] {
		t.Fatalf("generation 1 commits %v bytes, generation 2 %v: want 2 to open larger, end shorter and mid-record", gen1, gen2)
	}
	if n := len(clean.Image("kb" + store.WALSuffix)); n != 0 {
		t.Fatalf("log is %d bytes after a clean close, want 0", n)
	}
	st, err := store.Open(clean, "kb", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Obs().Snapshot()["store.wal.discarded_records"]; d != uint64(0) {
		t.Fatalf("clean reopen discarded %v log records", d)
	}
	st.Close()

	total := ctl.Ops()
	for k := 0; k < total; k++ {
		fsys := simfs.New(simfs.NewCtl(k))
		run, err := runRecycleWorkload(fsys)
		if err == nil {
			t.Fatalf("crash scheduled at op %d/%d never surfaced", k, total)
		}
		images := map[string]*simfs.FS{}
		for _, v := range simfs.Variants {
			images[v.String()] = fsys.Harvest(v)
		}
		dropLog := images["drop"].Image("kb" + store.WALSuffix)
		keepLog := images["keep"].Image("kb" + store.WALSuffix)
		for x := store.PageSize; x < len(keepLog) && x <= len(dropLog); x += store.PageSize {
			if !bytes.Equal(dropLog[:x], keepLog[:x]) {
				img := images["keep"].Clone(nil)
				img.SetImage("kb"+store.WALSuffix, append(dropLog[:x:x], keepLog[x:]...))
				images[fmt.Sprintf("keep without the write's bytes before %d", x)] = img
			}
		}
		for name, img := range images {
			label := fmt.Sprintf("crash at op %d/%d, %s", k, total, name)
			got := verifyRecycled(t, img, label)
			// The commit in flight is durable once its log fsync returns,
			// even if its checkpoint then crashes; a log write that lost
			// its head never is.
			inFlight := run.acked < len(recycleBatches) && !strings.HasPrefix(name, "keep without")
			if got != run.acked && (got != run.acked+1 || !inFlight) {
				t.Fatalf("%s: recovered %d commits, %d acknowledged", label, got, run.acked)
			}
			st, err := store.Open(img, "kb", store.Options{PoolPages: 16})
			if err != nil {
				t.Fatalf("%s: reopen to write: %v", label, err)
			}
			root, _ := st.GetMeta("recycle.heap")
			if err := recycleCommit(st, store.OpenHeap(st.Pool(), store.PageID(root)), got); err != nil || got == 0 {
				st.Close()
				continue // nothing durable to write onto: the heap root is not
			}
			if n := verifyRecycled(t, img.Clone(nil), label+", crash after one more commit"); n != got+1 {
				t.Fatalf("%s: the commit after recovery did not survive a crash (%d commits)", label, n)
			}
			st.Close()
		}
	}
}
