package store_test

// Transaction semantics at the store level: rollback restores content
// exactly, commit is atomic across crashes at every durability
// operation, and a commit refused by the disk (ENOSPC/EIO) aborts
// cleanly into read-only degraded mode.

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/store/simfs"
)

// baseRecord / txnRecord are the workload payloads; indexes are record
// numbers so content self-describes.
func baseRecord(n int) []byte { return []byte(fmt.Sprintf("base-record-%03d", n)) }
func txnRecord(n int) []byte  { return []byte(fmt.Sprintf("txn-record-%03d", n)) }

const txnBaseRecords = 40

// buildTxnBase populates a store with the pre-transaction state: a heap
// of base records (flushed and durable) and a meta marker.
func buildTxnBase(t *testing.T, st *store.Store) (store.PageID, []store.RID) {
	t.Helper()
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		t.Fatal(err)
	}
	var rids []store.RID
	for i := 0; i < txnBaseRecords; i++ {
		rid, err := h.Insert(baseRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := st.SetMeta("heap.root", uint64(h.Root())); err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta("base.done", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return h.Root(), rids
}

// mutateInTxn applies the transaction's workload: delete some base
// records, overwrite one, insert new ones (enough to allocate fresh
// pages), and touch the meta table.
func mutateInTxn(t *testing.T, st *store.Store, root store.PageID, rids []store.RID) {
	t.Helper()
	h := store.OpenHeap(st.Pool(), root)
	for i := 0; i < 5; i++ {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Update(rids[7], []byte("txn-overwrite")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(txnRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 2*store.PageSize)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := h.Insert(big); err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta("txn.applied", 1); err != nil {
		t.Fatal(err)
	}
}

// verifyBaseState checks the store holds exactly the pre-transaction
// content (a fresh heap handle: rollback invalidates cached hints).
func verifyBaseState(t *testing.T, st *store.Store, label string) {
	t.Helper()
	if v, _ := st.GetMeta("txn.applied"); v != 0 {
		t.Fatalf("%s: txn.applied marker survived", label)
	}
	if v, _ := st.GetMeta("base.done"); v != 1 {
		t.Fatalf("%s: base.done marker lost", label)
	}
	root, ok := st.GetMeta("heap.root")
	if !ok {
		t.Fatalf("%s: heap root lost", label)
	}
	h := store.OpenHeap(st.Pool(), store.PageID(root))
	got := map[string]int{}
	if err := h.Scan(func(_ store.RID, rec []byte) (bool, error) {
		got[string(rec)]++
		return true, nil
	}); err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	if len(got) != txnBaseRecords {
		t.Fatalf("%s: %d distinct records, want %d", label, len(got), txnBaseRecords)
	}
	for i := 0; i < txnBaseRecords; i++ {
		if got[string(baseRecord(i))] != 1 {
			t.Fatalf("%s: base record %d missing or duplicated", label, i)
		}
	}
}

// verifyTxnState checks the store holds exactly the post-transaction
// content.
func verifyTxnState(t *testing.T, st *store.Store, label string) {
	t.Helper()
	if v, _ := st.GetMeta("txn.applied"); v != 1 {
		t.Fatalf("%s: txn.applied marker missing", label)
	}
	root, _ := st.GetMeta("heap.root")
	h := store.OpenHeap(st.Pool(), store.PageID(root))
	got := map[string]int{}
	big := 0
	if err := h.Scan(func(_ store.RID, rec []byte) (bool, error) {
		if len(rec) == 2*store.PageSize {
			big++
		} else {
			got[string(rec)]++
		}
		return true, nil
	}); err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	if big != 1 {
		t.Fatalf("%s: %d overflow records, want 1", label, big)
	}
	for i := 5; i < txnBaseRecords; i++ {
		want := string(baseRecord(i))
		if i == 7 {
			want = "txn-overwrite"
		}
		if got[want] != 1 {
			t.Fatalf("%s: record %d (%q) missing after commit", label, i, want)
		}
	}
	for i := 0; i < 5; i++ {
		if got[string(baseRecord(i))] != 0 {
			t.Fatalf("%s: deleted record %d resurrected", label, i)
		}
	}
	for i := 0; i < 30; i++ {
		if got[string(txnRecord(i))] != 1 {
			t.Fatalf("%s: txn record %d missing", label, i)
		}
	}
}

// TestTxnRollbackRestoresStore proves Begin → mutate → Rollback is a
// perfect undo: heap content, meta table, allocations and the buffer
// pool all return to the pre-transaction state, and the same
// transaction retried with Commit then sticks.
func TestTxnRollbackRestoresStore(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		st, err := store.Open(simfs.New(nil), "kb", store.Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		root, rids := buildTxnBase(t, st)
		nPages := st.Pool().Pager().NumPages()

		if err := st.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := st.Begin(); !errors.Is(err, store.ErrTxnOpen) {
			t.Fatalf("nested Begin: %v, want ErrTxnOpen", err)
		}
		mutateInTxn(t, st, root, rids)
		if err := st.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := st.Pool().Pager().NumPages(); got != nPages {
			t.Fatalf("rollback left %d pages, want %d", got, nPages)
		}
		verifyBaseState(t, st, "after rollback")
		if err := st.Rollback(); !errors.Is(err, store.ErrNoTxn) {
			t.Fatalf("stray Rollback: %v, want ErrNoTxn", err)
		}
		if err := st.Commit(); !errors.Is(err, store.ErrNoTxn) {
			t.Fatalf("stray Commit: %v, want ErrNoTxn", err)
		}
		if st.ReadOnly() {
			t.Fatal("stray Commit must not degrade the store")
		}

		// The same transaction, committed, sticks.
		if err := st.Begin(); err != nil {
			t.Fatal(err)
		}
		mutateInTxn(t, st, root, rids)
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		verifyTxnState(t, st, "after commit")
	})
}

// TestTxnDurability commits a transaction on a file store and reopens
// the image: the transaction must be durable even with no checkpoint
// (recovered from the log alone), and a rolled-back transaction must
// leave no trace after reopen.
func TestTxnDurability(t *testing.T) {
	fsys := simfs.New(nil)
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	root, rids := buildTxnBase(t, st)
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	mutateInTxn(t, st, root, rids)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// No Close (which would checkpoint): reopen from the harvested image
	// so recovery must come from the log.
	img := fsys.Harvest(simfs.Keep)
	st2, err := store.Open(img, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	verifyTxnState(t, st2, "reopen after commit")
	st2.Close()

	// Rollback then crash: reopen sees the base state.
	fsys2 := simfs.New(nil)
	st3, err := store.Open(fsys2, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	root, rids = buildTxnBase(t, st3)
	if err := st3.Begin(); err != nil {
		t.Fatal(err)
	}
	mutateInTxn(t, st3, root, rids)
	if err := st3.Rollback(); err != nil {
		t.Fatal(err)
	}
	verifyBaseState(t, st3, "rollback before crash")
	img2 := fsys2.Harvest(simfs.Keep)
	st4, err := store.Open(img2, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	verifyBaseState(t, st4, "reopen after rollback")
	st4.Close()
}

// runTxnCommitWorkload is the crash-matrix workload: durable base
// state, then a transaction committed with the txn.applied marker
// riding the same commit. Every durability operation the run performs
// is a potential crash point.
func runTxnCommitWorkload(t *testing.T, fsys store.FS) error {
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		return err
	}
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		return err
	}
	var rids []store.RID
	for i := 0; i < txnBaseRecords; i++ {
		rid, err := h.Insert(baseRecord(i))
		if err != nil {
			return err
		}
		rids = append(rids, rid)
	}
	if err := st.SetMeta("heap.root", uint64(h.Root())); err != nil {
		return err
	}
	if err := st.SetMeta("base.done", 1); err != nil {
		return err
	}
	if err := st.Flush(); err != nil {
		return err
	}
	if err := st.Begin(); err != nil {
		return err
	}
	mutateInTxn(t, st, h.Root(), rids)
	if err := st.Commit(); err != nil {
		return err
	}
	return st.Close()
}

// TestTxnCommitCrashMatrix kills the process at every durability
// operation of a run whose tail is an open transaction being committed,
// under every drop/keep/torn interpretation: recovery must land on
// exactly the pre-transaction state or exactly the committed state —
// the txn.applied marker (which rides the commit) says which.
func TestTxnCommitCrashMatrix(t *testing.T) {
	probe := simfs.NewCtl(-1)
	if err := runTxnCommitWorkload(t, simfs.New(probe)); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := probe.Ops()
	if total < 4 {
		t.Fatalf("workload produced only %d durability ops", total)
	}
	for k := 0; k < total; k++ {
		for _, variant := range simfs.Variants {
			fsys := simfs.New(simfs.NewCtl(k))
			if err := runTxnCommitWorkload(t, fsys); err == nil {
				t.Fatalf("crash at op %d/%d never surfaced", k, total)
			}
			label := fmt.Sprintf("crash at op %d/%d, %s", k, total, variant)
			st, err := store.Open(fsys.Harvest(variant), "kb", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			if v, _ := st.GetMeta("base.done"); v != 1 {
				// Crashed before the base state committed: nothing to hold
				// the store to yet (the transaction never opened).
				st.Close()
				continue
			}
			if v, _ := st.GetMeta("txn.applied"); v == 1 {
				verifyTxnState(t, st, label)
			} else {
				verifyBaseState(t, st, label)
			}
			st.Close()
		}
	}
}

// TestTxnCommitFaultDegradesReadOnly injects ENOSPC/EIO into each
// durability operation of the commit itself: Commit must return the
// fault, roll the transaction back, and flip the store read-only —
// reads keep serving the pre-transaction state, new transactions are
// refused, and a reopen of the same disk finds the pre-transaction
// state with no trace of the aborted commit marker.
func TestTxnCommitFaultDegradesReadOnly(t *testing.T) {
	// Probe: count the ops before and during Commit.
	probe := simfs.NewCtl(-1)
	pfs := simfs.New(probe)
	pst, err := store.Open(pfs, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	root, rids := buildTxnBase(t, pst)
	if err := pst.Begin(); err != nil {
		t.Fatal(err)
	}
	mutateInTxn(t, pst, root, rids)
	preCommit := probe.Ops()
	if err := pst.Commit(); err != nil {
		t.Fatal(err)
	}
	commitOps := probe.Ops() - preCommit
	pst.Close()
	if commitOps < 2 {
		t.Fatalf("commit performed %d durability ops, expected at least WAL write + fsync", commitOps)
	}

	for k := preCommit; k < preCommit+commitOps; k++ {
		for _, inject := range []error{syscall.ENOSPC, syscall.EIO} {
			label := fmt.Sprintf("fault %v at op %d", inject, k)
			ctl := simfs.NewCtl(-1)
			ctl.FailAt(k, inject)
			fsys := simfs.New(ctl)
			st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			root, rids := buildTxnBase(t, st)
			if err := st.Begin(); err != nil {
				t.Fatalf("%s: begin: %v", label, err)
			}
			mutateInTxn(t, st, root, rids)
			err = st.Commit()
			if !errors.Is(err, inject) {
				t.Fatalf("%s: Commit = %v, want the injected fault", label, err)
			}
			if !st.ReadOnly() {
				t.Fatalf("%s: store not read-only after failed commit", label)
			}
			verifyBaseState(t, st, label+" (degraded reads)")
			if err := st.Begin(); !errors.Is(err, store.ErrReadOnly) {
				t.Fatalf("%s: Begin on degraded store = %v, want ErrReadOnly", label, err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			// The disk heals; reopening must find the pre-transaction
			// state — in particular the possibly-written commit marker
			// must not resurrect the aborted transaction.
			st2, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			if st2.ReadOnly() {
				t.Fatalf("%s: read-only state leaked across reopen", label)
			}
			verifyBaseState(t, st2, label+" (reopen)")
			st2.Close()
		}
	}
}

// TestTxnAbandonedOnCloseRollsBack closes a store with a transaction
// still open: Close must roll it back, not persist half of it.
func TestTxnAbandonedOnCloseRollsBack(t *testing.T) {
	fsys := simfs.New(nil)
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	root, rids := buildTxnBase(t, st)
	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	mutateInTxn(t, st, root, rids)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(fsys, "kb", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	verifyBaseState(t, st2, "reopen after abandoned txn")
	st2.Close()
}

// TestTxnFreeListRollback exercises the pager's undo of
// allocate-from-free-list and Free: the free chain and page contents
// must come back exactly.
func TestTxnFreeListRollback(t *testing.T) {
	st, err := store.Open(nil, "", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool := st.Pool()
	var frames []*store.Frame
	for i := 0; i < 4; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data {
			f.Data[j] = byte(10 + i)
		}
		frames = append(frames, f)
		pool.Unpin(f, true)
	}
	// Free one page so the transaction can reuse it from the free list.
	freed := frames[1].ID()
	if err := pool.Free(freed); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	nPages := pool.Pager().NumPages()

	if err := st.Begin(); err != nil {
		t.Fatal(err)
	}
	// Reuse the freed page and grow some more; dirty an existing page.
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != freed {
		t.Fatalf("allocation reused page %d, want freed page %d", f.ID(), freed)
	}
	pool.Unpin(f, true)
	g, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(g, true)
	h, err := pool.GetX(frames[2].ID())
	if err != nil {
		t.Fatal(err)
	}
	h.Data[0] = 0xFF
	pool.Unpin(h, true)
	if err := st.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got := pool.Pager().NumPages(); got != nPages {
		t.Fatalf("rollback left %d pages, want %d", got, nPages)
	}
	// The freed page is back on the free list: allocating returns it.
	f2, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f2.ID() != freed {
		t.Fatalf("post-rollback allocation returned %d, want %d", f2.ID(), freed)
	}
	pool.Unpin(f2, false)
	// Untouched pages kept their content.
	chk, err := pool.Get(frames[2].ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chk.Data[:4], []byte{12, 12, 12, 12}) {
		t.Fatalf("page %d content corrupted by rollback: % x", frames[2].ID(), chk.Data[:4])
	}
	pool.Unpin(chk, false)
}
