package store

// Regression tests for the heap scanner vs. overflow-chain reclamation.
// A scanner caches a page's live slots while the page is pinned; overflow
// chains must be resolved inside that same pin window, because a
// concurrent Delete frees the chain pages — and a subsequent Insert
// reallocates them — the moment the exclusive latch is available. The
// lazily-resolving scanner read freed or recycled pages (garbage tuples,
// "overflow chain length" errors) and its transient chain pins could make
// the writer's Free fail with "freeing pinned page". Run with -race.

import (
	"fmt"
	"sync"
	"testing"
)

// overflowRecord returns a self-validating record spanning several
// overflow pages: every byte equals v, so any read that mixes pages from
// two chain generations is detectable.
func overflowRecord(size int, v byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = v
	}
	return b
}

func checkOverflowRecord(data []byte, size int) error {
	if len(data) != size {
		return fmt.Errorf("record length %d, want %d", len(data), size)
	}
	v := data[0]
	for i, b := range data {
		if b != v {
			return fmt.Errorf("garbage record: byte 0 = %d, byte %d = %d", v, i, b)
		}
	}
	return nil
}

// TestHeapScanOverflowVsChurn races concurrent scanners against a writer
// that deletes and reinserts overflow records, over a pool small enough
// that the churned chain pages are evicted and reallocated continuously.
// Every yielded record must be internally consistent — a scanner must
// never follow a chain the writer has already freed.
func TestHeapScanOverflowVsChurn(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 16)
	h, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Each record spans ~3 overflow pages, so chain traversal has a
	// window between pages for the race to land in.
	const overSize = 3 * PageSize
	const nRecords = 8
	const churns = 200
	rids := make([]RID, nRecords)
	for i := range rids {
		rid, err := h.Insert(overflowRecord(overSize, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}

	const nScanners = 4
	stop := make(chan struct{})
	errs := make(chan error, nScanners+1)
	var wg sync.WaitGroup

	// Writer: retire one record, insert a replacement with a fresh fill
	// byte. The freed chain pages go back to the pager free list and are
	// immediately reused by the next insert.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		v := byte(nRecords + 1)
		for i := 0; i < churns; i++ {
			j := i % nRecords
			if err := h.Delete(rids[j]); err != nil {
				errs <- fmt.Errorf("churn %d: delete: %v", i, err)
				return
			}
			rid, err := h.Insert(overflowRecord(overSize, v))
			if err != nil {
				errs <- fmt.Errorf("churn %d: insert: %v", i, err)
				return
			}
			rids[j] = rid
			if v++; v == 0 {
				v = 1
			}
		}
	}()

	for r := 0; r < nScanners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				err := h.Scan(func(_ RID, data []byte) (bool, error) {
					return true, checkOverflowRecord(data, overSize)
				})
				if err != nil {
					errs <- fmt.Errorf("scanner %d round %d: %v", r, round, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The steady-state records must all have survived the churn intact.
	seen := 0
	err = h.Scan(func(_ RID, data []byte) (bool, error) {
		seen++
		return true, checkOverflowRecord(data, overSize)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != nRecords {
		t.Errorf("final scan saw %d records, want %d", seen, nRecords)
	}
}
