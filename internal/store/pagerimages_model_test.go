package store_test

// TestPagerImagesMatchModel drives the pager alone through random
// schedules of page writes, allocations, frees, commits, transactions,
// forced checkpoints, injected log-write and fsync faults and online
// backups that defer checkpoints, and checks every page it holds against
// a map model after each step. The pager reuses the page images it
// retires, so the check also requires that no image is held twice
// across pending, tail and spare, and that spare stays in its bound.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/store/simfs"
)

// pagerModel is what every page of the pager must read as.
type pagerModel struct {
	pages map[store.PageID][]byte // absent: all zeros
	num   store.PageID            // pages allocated, the header included
	free  []store.PageID          // the free list, its head last
}

func (m pagerModel) clone() pagerModel {
	c := pagerModel{pages: map[store.PageID][]byte{}, num: m.num, free: slices.Clone(m.free)}
	for id, b := range m.pages {
		c.pages[id] = b
	}
	return c
}

// live returns the allocated pages that are not on the free list.
func (m pagerModel) live() []store.PageID {
	var ids []store.PageID
	for id := store.PageID(1); id < m.num; id++ {
		if !slices.Contains(m.free, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func (m pagerModel) head() store.PageID {
	if len(m.free) == 0 {
		return 0
	}
	return m.free[len(m.free)-1]
}

func (m pagerModel) check(p *store.FilePager) error {
	if err := p.CheckImages(); err != nil {
		return err
	}
	if n := p.NumPages(); n != m.num {
		return fmt.Errorf("%d pages, model %d", n, m.num)
	}
	buf := make([]byte, store.PageSize)
	zero := make([]byte, store.PageSize)
	for id := store.PageID(1); id < m.num; id++ {
		if err := p.ReadPage(id, buf); err != nil {
			return fmt.Errorf("read page %d: %v", id, err)
		}
		want := m.pages[id]
		if want == nil {
			want = zero
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("page %d reads %x..., model %x...", id, buf[:8], want[:8])
		}
	}
	return nil
}

// pagerModelSeeds are the schedules the test runs; a seed found to fail
// is added here with the reason.
var pagerModelSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func TestPagerImagesMatchModel(t *testing.T) {
	for _, seed := range pagerModelSeeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runPagerModel(t, seed, 600) })
	}
}

func runPagerModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	ctl := simfs.NewCtl(-1)
	fsys := simfs.New(ctl)
	// A log limit of 24 pages: checkpoints come every few commits and
	// the spare bound (24 images) is reached.
	opts := store.Options{CheckpointBytes: 24 * store.PageSize}
	p, err := store.OpenPager(fsys, "kb", opts)
	if err != nil {
		t.Fatal(err)
	}
	m := pagerModel{pages: map[store.PageID][]byte{}, num: 1}
	var committed pagerModel // the state a failed transaction commit returns to
	inTxn, inBackup := false, false
	write := func() string {
		live := m.live()
		if len(live) == 0 {
			return "write: no live page"
		}
		id := live[rng.Intn(len(live))]
		b := make([]byte, store.PageSize)
		rng.Read(b)
		if err := p.WritePage(id, b); err != nil {
			t.Fatalf("seed %d: write %d: %v", seed, id, err)
		}
		m.pages[id] = b
		return fmt.Sprint("write ", id)
	}
	allocate := func() string {
		id, err := p.Allocate()
		if err != nil {
			t.Fatalf("seed %d: allocate: %v", seed, err)
		}
		want := m.num
		if n := len(m.free); n > 0 {
			want, m.free = m.free[n-1], m.free[:n-1]
		} else {
			m.num++
		}
		if id != want {
			t.Fatalf("seed %d: allocate gave page %d, model %d", seed, id, want)
		}
		delete(m.pages, id)
		return fmt.Sprint("allocate ", id)
	}
	// commit is Sync, or the transaction's commit; fault, when non-nil,
	// fails the log write (at 0) or its fsync (at 1).
	commit := func(fault *int) string {
		txn, what := inTxn, "sync"
		if txn {
			what = "commit"
		}
		if fault != nil {
			// A dirty page makes sure the commit reaches the log.
			if len(m.live()) == 0 {
				allocate()
			}
			write()
			ctl.FailAt(ctl.Ops()+*fault, syscall.EIO)
			what += [...]string{" (log write fails)", " (fsync fails)"}[*fault]
		}
		if txn {
			err = p.CommitTxn()
			inTxn = false
		} else {
			err = p.Sync()
		}
		switch {
		case fault == nil && err != nil:
			t.Fatalf("seed %d: %s: %v", seed, what, err)
		case fault != nil && err == nil:
			t.Fatalf("seed %d: %s: no error", seed, what)
		case fault != nil && txn:
			m = committed // a failed commit rolls the transaction back
		}
		return what
	}
	for step := 0; step < steps; step++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 35:
			what = write()
		case r < 47:
			what = allocate()
		case r < 55:
			live := m.live()
			if len(live) == 0 {
				what = allocate()
				break
			}
			id := live[rng.Intn(len(live))]
			if err := p.Free(id); err != nil {
				t.Fatalf("seed %d: free %d: %v", seed, id, err)
			}
			b := make([]byte, store.PageSize)
			binary.LittleEndian.PutUint32(b, uint32(m.head()))
			m.pages[id] = b
			m.free = append(m.free, id)
			what = fmt.Sprint("free ", id)
		case r < 70:
			what = commit(nil)
		case r < 76:
			if inTxn {
				if err := p.RollbackTxn(); err != nil {
					t.Fatalf("seed %d: rollback: %v", seed, err)
				}
				m, inTxn, what = committed, false, "rollback"
				break
			}
			if err := p.BeginTxn(); err != nil {
				t.Fatalf("seed %d: begin: %v", seed, err)
			}
			committed, inTxn, what = m.clone(), true, "begin"
		case r < 83:
			if err := p.Checkpoint(); err != nil {
				t.Fatalf("seed %d: checkpoint: %v", seed, err)
			}
			what = "checkpoint"
		case r < 89:
			fault := rng.Intn(2)
			what = commit(&fault)
		case r < 95:
			switch {
			case inBackup:
				p.AbortBackup()
				inBackup, what = false, "backup ends"
			case !inTxn:
				if err := p.BeginBackup(); err != nil {
					t.Fatalf("seed %d: begin backup: %v", seed, err)
				}
				inBackup, what = true, "backup begins"
			}
		default:
			// Many writes in a row, so a commit supersedes many images.
			for i := 0; i < 12; i++ {
				what = write()
			}
		}
		if err := m.check(p); err != nil {
			t.Fatalf("seed %d, step %d (%s): %v", seed, step, what, err)
		}
	}
	// Everything committed must survive a close and a reopen.
	if inTxn {
		if err := p.RollbackTxn(); err != nil {
			t.Fatal(err)
		}
		m = committed
	}
	if inBackup {
		p.AbortBackup()
	}
	if err := p.Close(); err != nil {
		t.Fatalf("seed %d: close: %v", seed, err)
	}
	if p, err = store.OpenPager(fsys, "kb", opts); err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	defer p.Close()
	if err := m.check(p); err != nil {
		t.Fatalf("seed %d, after reopen: %v", seed, err)
	}
}
