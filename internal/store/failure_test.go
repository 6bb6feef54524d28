package store

// Failure injection: a pager that starts failing after a set number of
// operations. Storage structures must surface errors, never panic or
// corrupt their in-memory state in ways that mask the failure.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
)

var errInjected = errors.New("injected I/O failure")

// flakyPager wraps a Pager and fails every operation once the countdown
// reaches zero.
type flakyPager struct {
	inner     Pager
	remaining int
}

func (p *flakyPager) tick() error {
	if p.remaining <= 0 {
		return errInjected
	}
	p.remaining--
	return nil
}

func (p *flakyPager) ReadPage(id PageID, buf []byte) error {
	if err := p.tick(); err != nil {
		return err
	}
	return p.inner.ReadPage(id, buf)
}

func (p *flakyPager) WritePage(id PageID, buf []byte) error {
	if err := p.tick(); err != nil {
		return err
	}
	return p.inner.WritePage(id, buf)
}

func (p *flakyPager) Allocate() (PageID, error) {
	if err := p.tick(); err != nil {
		return 0, err
	}
	return p.inner.Allocate()
}

func (p *flakyPager) Free(id PageID) error {
	if err := p.tick(); err != nil {
		return err
	}
	return p.inner.Free(id)
}

func (p *flakyPager) NumPages() PageID { return p.inner.NumPages() }

// Sync and Close are durability operations and can fail like any other
// I/O; they must burn the countdown too, or tests silently skip the
// commit path.
func (p *flakyPager) Sync() error {
	if err := p.tick(); err != nil {
		return err
	}
	return p.inner.Sync()
}

func (p *flakyPager) Close() error {
	if err := p.tick(); err != nil {
		return err
	}
	return p.inner.Close()
}

// runUntilFailure executes op with progressively later failure points
// until it succeeds without any injection, checking that every earlier
// cutoff produced a clean error.
func runUntilFailure(t *testing.T, build func(pool *Pool) error) {
	t.Helper()
	for budget := 0; budget < 10000; budget++ {
		fp := &flakyPager{inner: inMemoryPager(t), remaining: budget}
		pool := NewPool(fp, 16)
		err := build(pool)
		if err == nil {
			return // reached a budget where everything succeeds
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("budget %d: unexpected error type: %v", budget, err)
		}
	}
	t.Fatal("operation never completed within the failure budget")
}

func TestHeapSurvivesInjectedFailures(t *testing.T) {
	runUntilFailure(t, func(pool *Pool) error {
		h, err := CreateHeap(pool)
		if err != nil {
			return err
		}
		var rids []RID
		for i := 0; i < 50; i++ {
			rid, err := h.Insert([]byte(fmt.Sprintf("record %d with some padding", i)))
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		big := make([]byte, 3*PageSize)
		if _, err := h.Insert(big); err != nil {
			return err
		}
		for _, rid := range rids {
			if _, err := h.Get(rid); err != nil {
				return err
			}
		}
		if err := pool.FlushAll(); err != nil {
			return err
		}
		return nil
	})
}

func TestBTreeSurvivesInjectedFailures(t *testing.T) {
	runUntilFailure(t, func(pool *Pool) error {
		bt, err := CreateBTree(pool)
		if err != nil {
			return err
		}
		for i := 0; i < 300; i++ {
			if err := bt.Insert(intKey(i), uint64(i)); err != nil {
				return err
			}
		}
		vals, err := bt.SearchEQ(intKey(123))
		if err != nil {
			return err
		}
		if len(vals) != 1 || vals[0] != 123 {
			return fmt.Errorf("lookup corrupted: %v", vals)
		}
		return nil
	})
}

// TestEvictionWriteBackFailure drives the pool into evicting a dirty
// frame while the pager refuses writes: the Get must fail cleanly, the
// victim's data must survive in the pool (still dirty, still evictable),
// and once the pager heals the same operations must succeed with no
// data loss.
func TestEvictionWriteBackFailure(t *testing.T) {
	inner := inMemoryPager(t)
	fp := &flakyPager{inner: inner, remaining: 1 << 30}
	pool := NewPool(fp, 8)

	stamp := func(f *Frame, id PageID) {
		for i := range f.Data {
			f.Data[i] = byte(uint32(id) * 31)
		}
	}
	// First page: filled, then pushed out by the next eight while the
	// pager is healthy, so it lives only in the pager.
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	evicted := f.ID()
	stamp(f, evicted)
	pool.Unpin(f, true)
	var resident []PageID
	for i := 0; i < 8; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		stamp(f, f.ID())
		resident = append(resident, f.ID())
		pool.Unpin(f, true)
	}

	// Pager down: faulting the evicted page back in needs an eviction,
	// whose dirty write-back fails. Repeating must keep failing with the
	// injected error — not exhaust the pool by leaking victims.
	fp.remaining = 0
	for i := 0; i < 20; i++ {
		if _, err := pool.Get(evicted); !errors.Is(err, errInjected) {
			t.Fatalf("attempt %d: expected injected error, got %v", i, err)
		}
	}

	// Pager healed: the same Get succeeds and every page still carries
	// the data written before the outage.
	fp.remaining = 1 << 30
	check := func(id PageID) {
		t.Helper()
		f, err := pool.Get(id)
		if err != nil {
			t.Fatalf("page %d after heal: %v", id, err)
		}
		for _, b := range f.Data {
			if b != byte(uint32(id)*31) {
				t.Fatalf("page %d: data corrupted after failed eviction", id)
			}
		}
		pool.Unpin(f, false)
	}
	check(evicted)
	for _, id := range resident {
		check(id)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// --- checkpoint fault audit -------------------------------------------------
//
// A checkpoint folds committed WAL images into the page file and resets
// the log. Its failure modes must never clear p.tail or lose committed
// images: after any injected fault the pager must keep serving every
// committed page, accept further commits once the disk heals, and
// reopen to the same content.

// flakyFileCtl numbers durability operations (WriteAt/Sync/Truncate)
// across the files sharing it and injects one-shot errors at chosen
// indices.
type flakyFileCtl struct {
	ops    int
	failAt map[int]error
}

func (c *flakyFileCtl) tick() error {
	idx := c.ops
	c.ops++
	if err, ok := c.failAt[idx]; ok {
		return err
	}
	return nil
}

type flakyFile struct {
	ctl  *flakyFileCtl
	data []byte
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.ctl.tick(); err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if int64(len(f.data)) < end {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

func (f *flakyFile) Sync() error { return f.ctl.tick() }

func (f *flakyFile) Truncate(size int64) error {
	if err := f.ctl.tick(); err != nil {
		return err
	}
	if int64(len(f.data)) > size {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	}
	return nil
}

func (f *flakyFile) Close() error         { return nil }
func (f *flakyFile) Size() (int64, error) { return int64(len(f.data)), nil }

type flakyFS struct {
	ctl   *flakyFileCtl
	files map[string]*flakyFile
}

func (fs *flakyFS) OpenFile(name string) (File, error) {
	f, ok := fs.files[name]
	if !ok {
		f = &flakyFile{ctl: fs.ctl}
		fs.files[name] = f
	}
	return f, nil
}

// checkpointWorkload commits ckptPages patterned pages, then lowers the
// checkpoint limit and commits one more page so the very next Sync runs
// a checkpoint. Returns the pager and the op index at which that final
// Sync started.
const ckptPages = 12

func ckptPattern(id PageID, gen byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(uint32(id)*37) + gen
	}
	return buf
}

func checkpointWorkload(t *testing.T, ctl *flakyFileCtl) (*filePager, *flakyFS, int, error) {
	t.Helper()
	fsys := &flakyFS{ctl: ctl, files: map[string]*flakyFile{}}
	pg, err := openFilePager(fsys, "kb", Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < ckptPages; i++ {
		id, err := pg.Allocate()
		if err != nil {
			t.Fatalf("allocate: %v", err)
		}
		if err := pg.WritePage(id, ckptPattern(id, 0)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := pg.Sync(); err != nil { // plain commit, no checkpoint yet
		t.Fatalf("base commit: %v", err)
	}
	pg.checkpointBytes = 1
	if err := pg.WritePage(1, ckptPattern(1, 1)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	start := ctl.ops
	return pg, fsys, start, pg.Sync() // commit + checkpoint
}

func verifyCkptContent(t *testing.T, pg Pager, label string) {
	t.Helper()
	buf := make([]byte, PageSize)
	for id := PageID(1); id < pg.NumPages(); id++ {
		if err := pg.ReadPage(id, buf); err != nil {
			t.Fatalf("%s: read page %d: %v", label, id, err)
		}
		var gen byte
		if id == 1 {
			gen = 1
		}
		if !bytes.Equal(buf, ckptPattern(id, gen)) {
			t.Fatalf("%s: page %d content wrong after checkpoint fault", label, id)
		}
	}
}

// TestCheckpointFaultKeepsPagerConsistent injects ENOSPC/EIO into every
// durability operation of a commit-plus-checkpoint and requires that
// the pager (a) surfaces the error, (b) keeps its committed WAL images
// — the tail map is never cleared by a failed checkpoint and every
// committed page still reads back correctly, (c) accepts further
// commits once the disk heals, and (d) closes and reopens to exactly
// the expected content.
func TestCheckpointFaultKeepsPagerConsistent(t *testing.T) {
	probe := &flakyFileCtl{}
	_, _, start, err := checkpointWorkload(t, probe)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	span := probe.ops - start
	if span < 4 {
		t.Fatalf("checkpoint performed only %d ops; expected log write, fsync, frame writes, file sync, truncate", span)
	}
	for k := start; k < start+span; k++ {
		for _, inject := range []error{syscall.ENOSPC, syscall.EIO} {
			label := fmt.Sprintf("fault %v at op %d/%d", inject, k-start, span)
			ctl := &flakyFileCtl{failAt: map[int]error{k: inject}}
			pg, fsys, _, err := checkpointWorkload(t, ctl)
			if !errors.Is(err, inject) {
				t.Fatalf("%s: Sync = %v, want injected fault", label, err)
			}
			// The tail must still hold an image for every page it held
			// before the fault — a failed checkpoint may not discard them.
			if _, ok := pg.tail[1]; !ok {
				t.Fatalf("%s: failed checkpoint cleared the tail", label)
			}
			verifyCkptContent(t, pg, label+" (after fault)")
			// Healed: another write and commit must succeed, and Close
			// completes the interrupted checkpoint.
			if err := pg.WritePage(2, ckptPattern(2, 0)); err != nil {
				t.Fatalf("%s: post-fault write: %v", label, err)
			}
			if err := pg.Sync(); err != nil {
				t.Fatalf("%s: post-fault commit: %v", label, err)
			}
			verifyCkptContent(t, pg, label+" (after retry)")
			if err := pg.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			pg2, err := openFilePager(fsys, "kb", Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			verifyCkptContent(t, pg2, label+" (reopen)")
			if err := pg2.Close(); err != nil {
				t.Fatalf("%s: reclose: %v", label, err)
			}
		}
	}
}

func TestReadErrorsPropagate(t *testing.T) {
	// Build a valid structure, then make every further pager op fail:
	// reads must error, not panic. A large pool holds everything in
	// memory, so force misses with a tiny pool.
	inner := inMemoryPager(t)
	pool := NewPool(inner, 16)
	h, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("payload-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// New pool over a failing pager: every access should error cleanly.
	fp := &flakyPager{inner: inner, remaining: 0}
	pool2 := NewPool(fp, 16)
	h2 := OpenHeap(pool2, h.Root())
	if _, err := h2.Get(rids[0]); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected error, got %v", err)
	}
	err = h2.Scan(func(RID, []byte) (bool, error) { return true, nil })
	if !errors.Is(err, errInjected) {
		t.Fatalf("scan: expected injected error, got %v", err)
	}
}
