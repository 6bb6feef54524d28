package store_test

// An unsynced page has one home, the pager's pending map: a commit logs
// each page written since the previous commit once, however often it
// was written, and a checkpoint folds only what commits logged, its
// header stamped with the LSN of the commit that logged it.

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/store/simfs"
)

func walStat(st *store.Store, name string) uint64 { return st.Obs().Snapshot()[name].(uint64) }

// TestLogOncePerCommit writes one page k times between two Syncs: the
// second Sync logs two page records, the page's and the header's.
func TestLogOncePerCommit(t *testing.T) {
	st, err := store.Open(nil, "", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pg := st.Pool().Pager()
	id, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	const k = 5
	before := walStat(st, "store.wal.appends")
	buf := make([]byte, store.PageSize)
	for i := 0; i < k; i++ {
		buf[0] = byte(i + 1)
		if err := pg.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := walStat(st, "store.wal.appends") - before; got != 2 {
		t.Fatalf("a page written %d times between Syncs logged %d page records, want 2 (the page and the header)", k, got)
	}
	got := make([]byte, store.PageSize)
	if err := pg.ReadPage(id, got); err != nil || got[0] != k {
		t.Fatalf("page reads back %d (%v), want its last image %d", got[0], err, k)
	}
}

// TestLogOnceBulkLoad loads a heap and a B-tree through an 8-page pool,
// whose evictions write many pages more than once, and commits once:
// the log holds at most one record per page plus the header's, and one
// marker.
func TestLogOnceBulkLoad(t *testing.T) {
	st, err := store.Open(nil, "", store.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		t.Fatal(err)
	}
	bt, err := store.CreateBTree(st.Pool())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
		if err := bt.Insert([]byte(fmt.Sprintf("key-%08d", (i*7919)%2000)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := uint64(st.Pool().Pager().NumPages()) - 1 // page 0 is the header
	if writes := st.Stats().Writes; writes <= pages {
		t.Fatalf("%d page writes for %d pages: the load rewrote no page", writes, pages)
	}
	if got, max := walStat(st, "store.wal.bytes"), (pages+1)*walPageRec+17; got > max {
		t.Fatalf("one commit of %d pages logged %d bytes, want at most %d", pages, got, max)
	}
}

// The stale-head workload: each commit inserts staleRecs records into
// one heap page and logs exactly that page, the header and a marker.
const (
	staleCommits = 3
	staleRecs    = 5
	staleCommit  = 2*walPageRec + 17
)

func staleRec(i int) []byte {
	rec := bytes.Repeat([]byte{byte(i)}, 200)
	copy(rec, fmt.Sprintf("stale-head record %d", i))
	return rec
}

// TestStaleHeadOneCommitShort rewrites one heap page in three commits,
// the third of which checkpoints and rewinds the log. The crash image
// keeps the page file and a log whose head ends at the second commit's
// marker, followed by garbage, as when the next generation's first write
// lost its head. Replay then stops one commit short of the checkpoint,
// and the header the checkpoint folded must say so: every record
// survives, and none of the stale images is replayed.
func TestStaleHeadOneCommitShort(t *testing.T) {
	fsys := simfs.New(simfs.NewCtl(-1))
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 16, CheckpointBytes: staleCommits * staleCommit})
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta("stale.heap", uint64(h.Root())); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < staleCommits; c++ {
		before, cps := walStat(st, "store.wal.bytes"), walStat(st, "store.wal.checkpoints")
		for i := 0; i < staleRecs; i++ {
			if _, err := h.Insert(staleRec(c*staleRecs + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		// The geometry the crash image relies on.
		if n := walStat(st, "store.wal.bytes") - before; n != staleCommit {
			t.Fatalf("commit %d logged %d bytes, want %d (one page, the header, a marker)", c+1, n, staleCommit)
		}
		if cp := walStat(st, "store.wal.checkpoints") > cps; cp != (c == staleCommits-1) {
			t.Fatalf("commit %d checkpointed: %v, want only the last to", c+1, cp)
		}
	}
	img := fsys.Harvest(simfs.Drop)
	log := img.Image("kb" + store.WALSuffix)
	if len(log) != staleCommits*staleCommit {
		t.Fatalf("rewound log file is %d bytes, want the whole generation, %d", len(log), staleCommits*staleCommit)
	}
	img.SetImage("kb"+store.WALSuffix, append(log[:2*staleCommit:2*staleCommit], bytes.Repeat([]byte{0xFF}, 64)...))

	st2, err := store.Open(img, "kb", store.Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := walStat(st2, "store.wal.recovered_pages"); n != 0 {
		t.Fatalf("recovery replayed %d stale pages over the checkpoint", n)
	}
	root, _ := st2.GetMeta("stale.heap")
	got := map[string]bool{}
	if err := store.OpenHeap(st2.Pool(), store.PageID(root)).Scan(func(_ store.RID, rec []byte) (bool, error) {
		got[string(rec)] = true
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < staleCommits*staleRecs; i++ {
		if !got[string(staleRec(i))] {
			t.Fatalf("record %d lost: %d of %d survive", i, len(got), staleCommits*staleRecs)
		}
	}
	if len(got) != staleCommits*staleRecs {
		t.Fatalf("%d records, want %d", len(got), staleCommits*staleRecs)
	}
}

// TestFailedCommitKeepsLSNContinuity fails a commit's log write, or its
// fsync, then commits again after more writes, and crashes. The failed
// batch's images stay pending, so the retry logs them again, and its
// LSNs must continue the log where replay will meet them: from the same
// offset after a failed write (the batch's LSNs are given back), past
// the batch after a failed fsync (the batch may be durable, so its LSNs
// stay used). Otherwise replay stops at an LSN break before the retry.
func TestFailedCommitKeepsLSNContinuity(t *testing.T) {
	for name, op := range map[string]int{"write": 0, "fsync": 1} {
		t.Run(name, func(t *testing.T) {
			ctl := simfs.NewCtl(-1)
			fsys := simfs.New(ctl)
			st, err := store.Open(fsys, "kb", store.Options{PoolPages: 16})
			if err != nil {
				t.Fatal(err)
			}
			h, err := store.CreateHeap(st.Pool())
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < staleCommits; c++ {
				for i := 0; i < staleRecs; i++ {
					if _, err := h.Insert(staleRec(c*staleRecs + i)); err != nil {
						t.Fatal(err)
					}
				}
				if c == 1 {
					ctl.FailAt(ctl.Ops()+op, syscall.ENOSPC) // the log write is the commit's first op
				}
				if err := st.Flush(); (err != nil) != (c == 1) {
					t.Fatalf("commit %d: %v", c+1, err)
				}
			}
			st2, err := store.Open(fsys.Harvest(simfs.Drop), "kb", store.Options{PoolPages: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			n := 0
			if err := store.OpenHeap(st2.Pool(), h.Root()).Scan(func(store.RID, []byte) (bool, error) {
				n++
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			if n != staleCommits*staleRecs {
				t.Fatalf("%d records recovered, want %d", n, staleCommits*staleRecs)
			}
		})
	}
}
